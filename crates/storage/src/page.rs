//! The on-disk page format: a record-count header followed by encoded
//! records.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{CodecError, Record};

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
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(16 + self.records.len() * 32);
        buf.put_u32_le(self.records.len() as u32);
        for r in &self.records {
            r.encode(&mut buf);
        }
        buf.freeze()
    }

    /// Deserializes a page written by [`encode`](Page::encode).
    pub fn decode(mut bytes: Bytes) -> Result<Page<R>, CodecError> {
        if bytes.remaining() < 4 {
            return Err(CodecError::UnexpectedEof);
        }
        let n = bytes.get_u32_le() as usize;
        // A record is at least one byte, so a count beyond the bytes
        // present is a corrupt header — reject it before sizing from it.
        if n > bytes.remaining() {
            return Err(CodecError::UnexpectedEof);
        }
        let mut records = Vec::with_capacity(n);
        for _ in 0..n {
            records.push(R::decode(&mut bytes)?);
        }
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
    use punct_types::Tuple;

    fn tuples(n: usize) -> Vec<Tuple> {
        (0..n).map(|i| Tuple::of((i as i64, "payload"))).collect()
    }

    #[test]
    fn encode_decode_round_trip() {
        let page = Page::new(tuples(7));
        let bytes = page.encode();
        let back: Page<Tuple> = Page::decode(bytes).unwrap();
        assert_eq!(back, page);
        assert_eq!(back.len(), 7);
    }

    #[test]
    fn empty_page_round_trips() {
        let page: Page<Tuple> = Page::new(vec![]);
        assert!(page.is_empty());
        let back: Page<Tuple> = Page::decode(page.encode()).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn truncated_page_errors() {
        let page = Page::new(tuples(3));
        let bytes = page.encode();
        let cut = bytes.slice(0..bytes.len() - 1);
        assert!(Page::<Tuple>::decode(cut).is_err());
        assert!(Page::<Tuple>::decode(Bytes::from_static(&[0, 0])).is_err());
        // A header claiming u32::MAX records is an error, not an
        // allocation of that size.
        let mut huge = bytes.to_vec();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Page::<Tuple>::decode(Bytes::from(huge)).err(),
            Some(CodecError::UnexpectedEof)
        );
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
