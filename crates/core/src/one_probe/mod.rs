//! The Section 4.2 one-probe static dictionary (Theorem 6) and its
//! machinery.
//!
//! * [`encoding`] — the two field formats: case (b)'s
//!   identifier-plus-chunk fields decoded by majority, and case (a)'s
//!   unary-coded relative-pointer chains ("the differences are stored in
//!   unary format, and a 0-bit separates this pointer data from the
//!   record data. The tail field just starts with a 0-bit.").
//! * [`construct`] — the unique-neighbor assignment: both the simple
//!   recursive `O(n)`-I/O peeling and the paper's *improved* sort-based
//!   construction running entirely through I/O-accounted external sorts.
//! * [`static_dict`] — [`OneProbeStatic`], tying it together: one
//!   parallel I/O per lookup, construction cost `O(sort(n·d))`.
//!
//! A sampled graph expands for a given key set only with high probability
//! over its seed, so a static build whose graph fails to expand is retried,
//! deterministically: attempt `a` draws its graph at
//! [`attempt_seed`]`(seed, a)`, for at most [`BUILD_ATTEMPTS`] attempts, and
//! the structure keeps the attempt it was built at.

pub mod construct;
pub mod encoding;
pub mod head_model;
pub mod static_dict;

pub use head_model::HeadModelOneProbe;
pub use static_dict::{OneProbeStatic, OneProbeVariant};

use crate::layout::DiskAllocator;
use crate::traits::DictError;
use pdm::DiskArray;

/// Attempts a static build makes before it gives up on a key set.
pub const BUILD_ATTEMPTS: u32 = 8;

/// The seed attempt `attempt` of a static build draws its graph at: `seed`
/// itself first, then `mix64(seed ^ attempt)`.
#[must_use]
pub fn attempt_seed(seed: u64, attempt: u32) -> u64 {
    if attempt == 0 {
        seed
    } else {
        expander::mix::mix64(seed ^ u64::from(attempt))
    }
}

/// `build(disks, alloc, attempt)` for attempt 0, 1, … until it does not
/// fail to expand ([`DictError::is_expansion_failure`]), at most
/// [`BUILD_ATTEMPTS`] times; returns what it built and the attempt, or the
/// last attempt's error. A failed attempt gives back every block it laid
/// out — each disk of the array ends where it did
/// ([`DiskArray::discard_tail`]) and the allocator is as it was — so the
/// attempt that succeeds lays out what a first-try build of its graph does.
fn with_retries<T>(
    disks: &mut DiskArray,
    alloc: &mut DiskAllocator,
    mut build: impl FnMut(&mut DiskArray, &mut DiskAllocator, u32) -> Result<T, DictError>,
) -> Result<(T, u32), DictError> {
    let lens: Vec<usize> = (0..disks.disks()).map(|d| disks.blocks_on(d)).collect();
    let before = alloc.clone();
    let mut attempt = 0;
    loop {
        match build(disks, alloc, attempt) {
            Err(e) if e.is_expansion_failure() => {
                for (d, &len) in lens.iter().enumerate() {
                    disks.discard_tail(d, 1, len);
                }
                alloc.clone_from(&before);
                attempt += 1;
                if attempt == BUILD_ATTEMPTS {
                    return Err(e);
                }
            }
            built => return built.map(|t| (t, attempt)),
        }
    }
}
