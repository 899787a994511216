//! The on-disk page format — a record count followed by encoded
//! records, all in the `punct_types::wire` codec — and the [`Record`]
//! trait join operators implement for their stored-tuple wrappers.

use punct_types::wire::{get_tuple, put_tuple, put_u32, WireError, WireReader};
use punct_types::Tuple;

/// A stored-tuple wrapper that can live in a [`PartitionedStore`]
/// (join operators attach metadata such as arrival timestamps or
/// punctuation-index ids).
///
/// [`PartitionedStore`]: crate::partition::PartitionedStore
pub trait Record: Clone {
    /// The wrapped data tuple.
    fn tuple(&self) -> &Tuple;
    /// Appends the record (tuple + metadata).
    fn encode(&self, buf: &mut Vec<u8>);
    /// Reads a record written by [`encode`](Record::encode).
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// The trivial record: a bare tuple with no metadata (used by tests).
impl Record for Tuple {
    fn tuple(&self) -> &Tuple {
        self
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        put_tuple(buf, self);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        get_tuple(r)
    }
}

/// A decoded page of records.
#[derive(Debug, Clone, PartialEq)]
pub struct Page<R> {
    records: Vec<R>,
}

impl<R: Record> Page<R> {
    /// Builds a page from records.
    pub fn new(records: Vec<R>) -> Page<R> {
        Page { records }
    }

    /// The records on this page.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Consumes the page, yielding its records.
    pub fn into_records(self) -> Vec<R> {
        self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the page has no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the page.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(16 + self.records.len() * 32);
        put_u32(&mut buf, self.records.len() as u32);
        for r in &self.records {
            r.encode(&mut buf);
        }
        buf
    }

    /// Deserializes a page written by [`encode`](Page::encode).
    pub fn decode(bytes: &[u8]) -> Result<Page<R>, WireError> {
        let mut r = WireReader::new(bytes);
        let n = r.count("page record count", 1)?;
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(R::decode(&mut r)?);
        }
        r.finish()?;
        Ok(Page { records })
    }
}

/// Splits `records` into pages of at most `page_tuples` records each.
pub fn paginate<R: Record>(records: Vec<R>, page_tuples: usize) -> Vec<Page<R>> {
    assert!(page_tuples > 0, "page capacity must be positive");
    let mut pages = Vec::with_capacity(records.len().div_ceil(page_tuples));
    let mut current = Vec::with_capacity(page_tuples.min(records.len()));
    for r in records {
        current.push(r);
        if current.len() == page_tuples {
            pages.push(Page::new(std::mem::replace(
                &mut current,
                Vec::with_capacity(page_tuples),
            )));
        }
    }
    if !current.is_empty() {
        pages.push(Page::new(current));
    }
    pages
}

#[cfg(test)]
mod tests {
    use super::*;
    use punct_types::wire::put_u32_at;

    fn tuples(n: usize) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::of((i as i64, "payload"))).collect()
    }

    #[test]
    fn multiple_records_stream() {
        let a = Tuple::of((1i64, "x"));
        let b = Tuple::of((2i64, "y"));
        let mut buf = Vec::new();
        Record::encode(&a, &mut buf);
        Record::encode(&b, &mut buf);
        let mut r = WireReader::new(&buf);
        assert_eq!(<Tuple as Record>::decode(&mut r).unwrap(), a);
        assert_eq!(<Tuple as Record>::decode(&mut r).unwrap(), b);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let page = Page::new(tuples(7));
        let back: Page<Tuple> = Page::decode(&page.encode()).unwrap();
        assert_eq!(back, page);
        assert_eq!(back.len(), 7);
    }

    #[test]
    fn empty_page_round_trips() {
        let page: Page<Tuple> = Page::new(vec![]);
        assert!(page.is_empty());
        let back: Page<Tuple> = Page::decode(&page.encode()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_page_errors() {
        let page = Page::new(tuples(3));
        let bytes = page.encode();
        assert!(Page::<Tuple>::decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(Page::<Tuple>::decode(&[0, 0]).is_err());
        // A header claiming u32::MAX records is an error, not an
        // allocation of that size.
        let mut huge = bytes.clone();
        put_u32_at(&mut huge, 0, u32::MAX);
        assert!(matches!(
            Page::<Tuple>::decode(&huge),
            Err(WireError::TooLarge { what: "page record count", .. })
        ));
    }

    #[test]
    fn paginate_splits_evenly() {
        let pages = paginate(tuples(10), 4);
        assert_eq!(pages.len(), 3);
        assert_eq!(pages[0].len(), 4);
        assert_eq!(pages[1].len(), 4);
        assert_eq!(pages[2].len(), 2);
        let all: Vec<Tuple> =
            pages.into_iter().flat_map(Page::into_records).collect();
        assert_eq!(all, tuples(10));
    }

    #[test]
    fn paginate_exact_multiple() {
        let pages = paginate(tuples(8), 4);
        assert_eq!(pages.len(), 2);
        assert!(pages.iter().all(|p| p.len() == 4));
    }

    #[test]
    fn paginate_empty() {
        let pages: Vec<Page<Tuple>> = paginate(vec![], 4);
        assert!(pages.is_empty());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn paginate_rejects_zero_capacity() {
        let _ = paginate(tuples(1), 0);
    }
}
