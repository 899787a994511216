//! Format pin: the exact bytes of one epoch file. Epoch files outlive
//! the process that wrote them, so a codec refactor must leave them
//! byte-identical (or bump `FORMAT_VERSION`); this constant makes any
//! drift a test failure.
//!
//! On a mismatch the test prints the actual encoding in the constant's
//! own format, so an intended format change is re-pinned by pasting.

use punct_durable::format::{read_epoch_file, write_epoch_file};
use punct_durable::{PendingPunct, ShardRecords, Snapshot, SnapshotMeta};
use punct_types::{Pattern, Punctuation, Tuple, Value};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// META, two RECORDS and PENDING sections.
fn snapshot() -> Snapshot {
    let meta = SnapshotMeta {
        config_blob: vec![9, 8, 7],
        workers: 2,
        shards: 4,
        input_cursor: 17,
        pushed: 21,
    };
    let records = vec![
        ShardRecords {
            shard: 1,
            side: 0,
            records: vec![
                (5, Tuple::new(vec![Value::Int(1), Value::Float(f64::NAN), Value::Float(-0.0)])),
                (6, Tuple::new(vec![Value::str("héllo"), Value::Null, Value::Bool(false)])),
            ],
        },
        ShardRecords {
            shard: 3,
            side: 1,
            records: vec![(u64::MAX, Tuple::new(vec![Value::str(""), Value::Int(i64::MIN)]))],
        },
    ];
    let mut snap = Snapshot::of_records(4, meta, records);
    snap.pending = vec![
        PendingPunct { seq: 9, side: 1, punct: Punctuation::close_value(2, 0, 4i64) },
        PendingPunct { seq: 2, side: 0, punct: Punctuation::on_attr(2, 1, Pattern::Empty) },
    ];
    snap
}

const EPOCH_FILE_PIN: &str = "\
    504a534e41503031010000000400000000000000010000000000000000001f0000000a3e94a60300\
    00000908070200000004000000110000000000000015000000000000000200010000000000000045\
    0000008a82fcae0200000005000000000000000300000002010000000000000003000000000000f8\
    7f030000000000000080060000000000000003000000040600000068c3a96c6c6f00010002010300\
    0000000000001e000000519d97e401000000ffffffffffffffff0200000004000000000200000000\
    00000080050000000000000000002b00000016fa91a5020000000200000000000000000200000000\
    04090000000000000001020000000102040000000000000000ff04000000";

#[test]
fn epoch_file_bytes_are_pinned() {
    let snap = snapshot();
    let file = write_epoch_file(snap.epoch, &snap.to_sections());
    let actual = hex(&file);
    if actual != EPOCH_FILE_PIN {
        eprintln!("const EPOCH_FILE_PIN: &str = \"{actual}\";");
    }
    assert_eq!(actual, EPOCH_FILE_PIN, "the epoch file changed bytes");

    // The pinned bytes read back into the same snapshot.
    let (epoch, sections) = read_epoch_file(&file).expect("read back");
    let back = Snapshot::from_sections(epoch, &sections).expect("decode");
    assert_eq!(hex(&write_epoch_file(back.epoch, &back.to_sections())), EPOCH_FILE_PIN);
}
