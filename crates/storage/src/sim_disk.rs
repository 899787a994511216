//! The in-memory disk used by deterministic simulations.
//!
//! Pages are held in a map; the simulation's cost model charges virtual
//! I/O latency per page (see `stream-sim`), so the physical medium is
//! irrelevant to the experiments — only the page counts matter.

use std::collections::HashMap;

use crate::backend::{DiskBackend, IoStats, PageId};

/// An in-memory page store with I/O accounting.
#[derive(Debug, Clone, Default)]
pub struct SimDisk {
    pages: HashMap<PageId, Vec<u8>>,
    next_id: u64,
    stats: IoStats,
}

impl SimDisk {
    /// Creates an empty disk.
    pub fn new() -> SimDisk {
        SimDisk::default()
    }
}

impl DiskBackend for SimDisk {
    fn write_page(&mut self, data: Vec<u8>) -> PageId {
        let id = PageId(self.next_id);
        self.next_id += 1;
        self.stats.pages_written += 1;
        self.stats.bytes_written += data.len() as u64;
        self.pages.insert(id, data);
        id
    }

    fn read_page(&mut self, id: PageId) -> Vec<u8> {
        let data = self.pages.get(&id).unwrap_or_else(|| panic!("read of unknown page {id:?}"));
        self.stats.pages_read += 1;
        self.stats.bytes_read += data.len() as u64;
        data.clone()
    }

    fn free_page(&mut self, id: PageId) {
        if let Some(data) = self.pages.remove(&id) {
            self.stats.pages_freed += 1;
            self.stats.bytes_freed += data.len() as u64;
        }
    }

    fn stats(&self) -> IoStats {
        self.stats
    }

    fn live_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_free_cycle() {
        let mut d = SimDisk::new();
        let a = d.write_page(b"alpha".to_vec());
        let b = d.write_page(b"beta".to_vec());
        assert_ne!(a, b);
        assert_eq!(d.live_pages(), 2);
        assert_eq!(&d.read_page(a)[..], b"alpha");
        assert_eq!(&d.read_page(b)[..], b"beta");
        d.free_page(a);
        assert_eq!(d.live_pages(), 1);
    }

    #[test]
    fn stats_accumulate() {
        let mut d = SimDisk::new();
        let id = d.write_page(b"12345".to_vec());
        d.read_page(id);
        d.read_page(id);
        let s = d.stats();
        assert_eq!(s.pages_written, 1);
        assert_eq!(s.pages_read, 2);
        assert_eq!(s.bytes_written, 5);
        assert_eq!(s.bytes_read, 10);
    }

    #[test]
    fn free_accounting_matches_file_disk() {
        let mut d = SimDisk::new();
        let a = d.write_page(b"12345".to_vec());
        let _b = d.write_page(b"678".to_vec());
        d.free_page(a);
        d.free_page(a); // double-free: no effect on the accounting
        let s = d.stats();
        assert_eq!(s.pages_freed, 1);
        assert_eq!(s.bytes_freed, 5);
        assert_eq!(s.live_bytes(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown page")]
    fn reading_freed_page_panics() {
        let mut d = SimDisk::new();
        let id = d.write_page(b"x".to_vec());
        d.free_page(id);
        d.read_page(id);
    }
}
