//! Data-parallel tag-scan kernels for the slab bucket's probe path.
//!
//! A [`Bucket`](crate::Bucket) probe is a linear scan of a packed
//! `Vec<u64>` tag array. This module turns that scan into an explicit
//! kernel over 64-tag *windows*: each window is reduced to a `u64` match
//! bitmask, and hits are popped off the mask with `trailing_zeros`. The
//! window shape gives three interchangeable implementations:
//!
//! * [`ProbeKernel::Scalar`] — the reference loop, one branch per tag.
//!   Every other kernel must produce bit-identical masks (property-tested
//!   in `tests/prop_kernel_equivalence.rs`).
//! * [`ProbeKernel::Swar`] — branch-free SWAR: `x ^ tag` reduced to a
//!   0/1 lane via `(x | x.wrapping_neg()) >> 63 ^ 1`, eight lanes per
//!   unrolled step, accumulated straight into the mask word. No data
//!   dependence between lanes, so the compiler is free to vectorize.
//! * [`ProbeKernel::Avx2`] — explicit `std::arch` AVX2:
//!   `_mm256_cmpeq_epi64` compares four tags per instruction, the lane
//!   mask is extracted with `movemask`. Guarded by **runtime** feature
//!   detection (`is_x86_feature_detected!`), so the crate still compiles
//!   and runs on any x86-64 (and the variant is simply unsupported
//!   elsewhere). No new dependencies.
//!
//! The kernel is selected **once** per process ([`ProbeKernel::selected`])
//! from what the host supports — AVX2 when detected, SWAR otherwise;
//! `Scalar` is the reference the property tests compare against.
//! Sentinel handling is centralized here: probe masks are raw
//! tag equality, and [`ProbeKernel::scan_tags`] refuses sentinel probe
//! tags ([`TAG_FREE`], [`TAG_UNKEYED`]) up front, exactly like the old
//! scalar loop's `live_tag` guard.

use std::sync::OnceLock;

use crate::bucket::{TAG_FREE, TAG_UNKEYED};

/// Tags per scan window: one `u64` mask word's worth.
pub const WINDOW: usize = 64;

/// A tag-scan kernel. See the module docs for the selection rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeKernel {
    /// Reference scalar loop (one compare-and-branch per tag).
    Scalar,
    /// Branch-free SWAR over u64 words, eight lanes per step.
    Swar,
    /// `std::arch` AVX2 (`_mm256_cmpeq_epi64`), four tags per compare.
    /// Only supported on x86-64 hosts with AVX2; see
    /// [`is_supported`](Self::is_supported).
    Avx2,
}

impl ProbeKernel {
    /// Every kernel variant, for enumeration by benches and tests.
    pub const ALL: [ProbeKernel; 3] = [ProbeKernel::Scalar, ProbeKernel::Swar, ProbeKernel::Avx2];

    /// The kernel's stable name (bench and report key).
    pub fn name(self) -> &'static str {
        match self {
            ProbeKernel::Scalar => "scalar",
            ProbeKernel::Swar => "swar",
            ProbeKernel::Avx2 => "avx2",
        }
    }

    /// Whether this host can run the kernel. Scalar and SWAR always can;
    /// AVX2 needs an x86-64 host with the feature bit set.
    pub fn is_supported(self) -> bool {
        match self {
            ProbeKernel::Scalar | ProbeKernel::Swar => true,
            #[cfg(target_arch = "x86_64")]
            ProbeKernel::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            ProbeKernel::Avx2 => false,
        }
    }

    /// The kernels this host supports (property tests run the full set).
    pub fn supported() -> Vec<ProbeKernel> {
        ProbeKernel::ALL
            .into_iter()
            .filter(|k| k.is_supported())
            .collect()
    }

    /// The process-wide kernel, detected once and cached: the fastest
    /// the host supports — AVX2 when available, else SWAR.
    pub fn selected() -> ProbeKernel {
        static SELECTED: OnceLock<ProbeKernel> = OnceLock::new();
        *SELECTED.get_or_init(|| {
            if ProbeKernel::Avx2.is_supported() {
                ProbeKernel::Avx2
            } else {
                ProbeKernel::Swar
            }
        })
    }

    /// Raw equality bitmask over a window of at most [`WINDOW`] tags:
    /// bit `j` is set iff `window[j] == tag`. No sentinel handling —
    /// callers gate sentinel probe tags ([`scan_tags`](Self::scan_tags))
    /// or compare against a sentinel deliberately
    /// ([`occupied_mask`](Self::occupied_mask)).
    #[inline]
    pub fn match_mask(self, window: &[u64], tag: u64) -> u64 {
        debug_assert!(window.len() <= WINDOW, "window exceeds one mask word");
        match self {
            ProbeKernel::Scalar => match_mask_scalar(window, tag),
            ProbeKernel::Swar => match_mask_swar(window, tag),
            #[cfg(target_arch = "x86_64")]
            ProbeKernel::Avx2 => {
                if std::arch::is_x86_feature_detected!("avx2") {
                    // SAFETY: feature presence just checked (and cached
                    // by std); the intrinsics use unaligned loads.
                    unsafe { match_mask_avx2(window, tag) }
                } else {
                    match_mask_swar(window, tag)
                }
            }
            #[cfg(not(target_arch = "x86_64"))]
            ProbeKernel::Avx2 => match_mask_swar(window, tag),
        }
    }

    /// Occupancy bitmask over a window: bit `j` is set iff `window[j]`
    /// holds a live record (`!= TAG_FREE`). Unkeyed records count as
    /// occupied — full scans (retain/extract) must visit them.
    #[inline]
    pub fn occupied_mask(self, window: &[u64]) -> u64 {
        let len_mask = if window.len() == WINDOW {
            u64::MAX
        } else {
            (1u64 << window.len()) - 1
        };
        !self.match_mask(window, TAG_FREE) & len_mask
    }

    /// The common probe primitive: appends to `hits` the ascending
    /// indices of every tag in `tags` equal to `tag`. Sentinel probe
    /// tags ([`TAG_FREE`], [`TAG_UNKEYED`]) match nothing, and the tail
    /// window (length `% 64`) is handled identically to full windows —
    /// both behaviors bit-compatible with the pre-kernel scalar loop.
    pub fn scan_tags(self, tags: &[u64], tag: u64, hits: &mut Vec<u32>) {
        if tag >= TAG_UNKEYED {
            return;
        }
        let mut base = 0;
        while base < tags.len() {
            let end = (base + WINDOW).min(tags.len());
            let mut m = self.match_mask(&tags[base..end], tag);
            while m != 0 {
                hits.push((base + m.trailing_zeros() as usize) as u32);
                m &= m - 1;
            }
            base = end;
        }
    }

    /// Appends to `hits` the ascending indices of every occupied slot
    /// (tag `!= TAG_FREE`) — the full-scan analogue of
    /// [`scan_tags`](Self::scan_tags), used by retain/extract.
    pub fn scan_occupied(self, tags: &[u64], hits: &mut Vec<u32>) {
        let mut base = 0;
        while base < tags.len() {
            let end = (base + WINDOW).min(tags.len());
            let mut m = self.occupied_mask(&tags[base..end]);
            while m != 0 {
                hits.push((base + m.trailing_zeros() as usize) as u32);
                m &= m - 1;
            }
            base = end;
        }
    }
}

impl std::fmt::Display for ProbeKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Reference kernel: the pre-kernel scalar loop, reshaped to a mask.
fn match_mask_scalar(window: &[u64], tag: u64) -> u64 {
    let mut m = 0u64;
    for (j, &t) in window.iter().enumerate() {
        if t == tag {
            m |= 1u64 << j;
        }
    }
    m
}

/// `1` iff `x == 0`, branch-free: for nonzero `x`, `x | -x` has the top
/// bit set (two's complement), so the shifted word is 1; invert.
#[inline(always)]
fn swar_eq0(x: u64) -> u64 {
    ((x | x.wrapping_neg()) >> 63) ^ 1
}

/// SWAR kernel: eight independent branch-free lanes per step, ORed into
/// the mask word at their window positions.
fn match_mask_swar(window: &[u64], tag: u64) -> u64 {
    let mut m = 0u64;
    let mut j = 0u32;
    let mut chunks = window.chunks_exact(8);
    for ch in &mut chunks {
        let w = swar_eq0(ch[0] ^ tag)
            | swar_eq0(ch[1] ^ tag) << 1
            | swar_eq0(ch[2] ^ tag) << 2
            | swar_eq0(ch[3] ^ tag) << 3
            | swar_eq0(ch[4] ^ tag) << 4
            | swar_eq0(ch[5] ^ tag) << 5
            | swar_eq0(ch[6] ^ tag) << 6
            | swar_eq0(ch[7] ^ tag) << 7;
        m |= w << j;
        j += 8;
    }
    for &t in chunks.remainder() {
        m |= swar_eq0(t ^ tag) << j;
        j += 1;
    }
    m
}

/// AVX2 kernel: two 4-lane `cmpeq_epi64` compares per step (eight tags),
/// lane masks extracted via `movemask_pd`. Scalar tail for the last
/// `len % 4` tags.
///
/// # Safety
/// The caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn match_mask_avx2(window: &[u64], tag: u64) -> u64 {
    use std::arch::x86_64::*;
    let needle = _mm256_set1_epi64x(tag as i64);
    let ptr = window.as_ptr();
    let n = window.len();
    let mut m = 0u64;
    let mut j = 0usize;
    while j + 8 <= n {
        let a = _mm256_loadu_si256(ptr.add(j) as *const __m256i);
        let b = _mm256_loadu_si256(ptr.add(j + 4) as *const __m256i);
        let ea = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(a, needle))) as u64;
        let eb = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(b, needle))) as u64;
        m |= ((ea & 0xF) | (eb & 0xF) << 4) << j;
        j += 8;
    }
    if j + 4 <= n {
        let a = _mm256_loadu_si256(ptr.add(j) as *const __m256i);
        let ea = _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(a, needle))) as u64;
        m |= (ea & 0xF) << j;
        j += 4;
    }
    while j < n {
        m |= ((*ptr.add(j) == tag) as u64) << j;
        j += 1;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_selection() {
        // The platform rule always picks a supported data-parallel kernel.
        let selected = ProbeKernel::selected();
        assert!(selected.is_supported());
        assert_ne!(selected, ProbeKernel::Scalar);
        assert_eq!(selected == ProbeKernel::Avx2, ProbeKernel::Avx2.is_supported());
        for k in ProbeKernel::ALL {
            assert!(!k.name().is_empty());
        }
        assert!(ProbeKernel::supported().contains(&ProbeKernel::Scalar));
        assert!(ProbeKernel::supported().contains(&ProbeKernel::Swar));
    }

    #[test]
    fn masks_agree_on_boundaries() {
        // Exact window, window±1, tail-only, empty: every supported
        // kernel must equal the scalar reference bit for bit.
        for len in [0usize, 1, 3, 7, 8, 9, 31, 63, 64, 65, 127, 128, 130] {
            let tags: Vec<u64> = (0..len)
                .map(|i| if i % 3 == 0 { 42 } else { i as u64 })
                .collect();
            for window in tags.chunks(WINDOW) {
                let want = match_mask_scalar(window, 42);
                for k in ProbeKernel::supported() {
                    assert_eq!(k.match_mask(window, 42), want, "{k} len {len}");
                }
            }
        }
    }

    #[test]
    fn scan_tags_refuses_sentinels() {
        let tags = vec![TAG_FREE, TAG_UNKEYED, 5, TAG_FREE, 5];
        for k in ProbeKernel::supported() {
            let mut hits = Vec::new();
            k.scan_tags(&tags, TAG_FREE, &mut hits);
            k.scan_tags(&tags, TAG_UNKEYED, &mut hits);
            assert!(hits.is_empty(), "{k}: sentinel probes must match nothing");
            k.scan_tags(&tags, 5, &mut hits);
            assert_eq!(hits, vec![2, 4], "{k}");
        }
    }

    #[test]
    fn scan_occupied_skips_only_holes() {
        let tags = vec![TAG_FREE, TAG_UNKEYED, 5, TAG_FREE, 0];
        for k in ProbeKernel::supported() {
            let mut hits = Vec::new();
            k.scan_occupied(&tags, &mut hits);
            assert_eq!(hits, vec![1, 2, 4], "{k}: unkeyed slots are occupied");
        }
    }

    #[test]
    fn full_window_occupancy_mask() {
        // 64 live tags: the length mask must not shift out of the word.
        let tags = vec![7u64; WINDOW];
        for k in ProbeKernel::supported() {
            assert_eq!(k.occupied_mask(&tags), u64::MAX, "{k}");
            assert_eq!(k.match_mask(&tags, 7), u64::MAX, "{k}");
        }
    }
}
