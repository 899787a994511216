//! The disk backend abstraction.

/// Identifier of a stored page.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u64);

/// I/O statistics accumulated by a backend.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Pages written since creation.
    pub pages_written: u64,
    /// Pages read since creation.
    pub pages_read: u64,
    /// Bytes written since creation.
    pub bytes_written: u64,
    /// Bytes read since creation.
    pub bytes_read: u64,
    /// Pages freed since creation.
    pub pages_freed: u64,
    /// Bytes released by freed pages. `bytes_written - bytes_freed` is
    /// the live footprint; the spill file itself only shrinks on drop,
    /// which is what the high-water mark accessors expose.
    pub bytes_freed: u64,
}

impl IoStats {
    /// Bytes currently held by live (written, not freed) pages.
    pub fn live_bytes(&self) -> u64 {
        self.bytes_written.saturating_sub(self.bytes_freed)
    }
}

/// Page-granular storage for spilled join state.
///
/// Implementations: [`SimDisk`](crate::sim_disk::SimDisk) (in-memory,
/// deterministic simulations) and [`FileDisk`](crate::file_disk::FileDisk)
/// (real files).
pub trait DiskBackend {
    /// Persists a page, returning its id.
    fn write_page(&mut self, data: Vec<u8>) -> PageId;

    /// Reads a page back. Panics if the id was never written or was freed
    /// — operator logic owns page lifetimes, so a miss is a bug, not a
    /// recoverable condition.
    fn read_page(&mut self, id: PageId) -> Vec<u8>;

    /// Releases a page.
    fn free_page(&mut self, id: PageId);

    /// Cumulative I/O statistics.
    fn stats(&self) -> IoStats;

    /// Number of live (written, not freed) pages.
    fn live_pages(&self) -> usize;
}
