//! Shard-image serialization: a frozen [`DiskArray`] as a flat byte
//! string, chunked over the wire by the migration opcodes.
//!
//! The image is the *whole physical medium* of a shard — dictionary
//! regions **and** the journal ring (the superblock checkpoint and any
//! in-flight intents). That is what makes re-replication "journaled
//! catch-up": the receiver pokes the blocks back verbatim and runs the
//! ordinary crash-recovery path ([`pdm_dict::DynamicDict::reopen`]),
//! which replays the ring exactly as a restart on the source would —
//! no bespoke migration protocol to trust, only the one recovery code
//! path that is already differentially tested.

use pdm::{BlockAddr, DiskArray, PdmConfig, Word};

/// Wire chunk size for migrating images: half the protocol's
/// [`pdm_server::protocol::MAX_FRAME`], leaving generous room for the
/// chunk header.
pub const CHUNK_BYTES: usize = 1 << 19;

/// Number of chunks a `len`-byte image travels as (at least 1, so an
/// empty image still completes the install handshake).
#[must_use]
pub fn chunks_of(len: usize) -> u32 {
    (len.div_ceil(CHUNK_BYTES)).max(1) as u32
}

/// The `chunk`-th slice of `bytes` (empty for the trailing chunk of an
/// empty image).
#[must_use]
pub fn chunk_slice(bytes: &[u8], chunk: u32) -> &[u8] {
    let start = (chunk as usize * CHUNK_BYTES).min(bytes.len());
    let end = (start + CHUNK_BYTES).min(bytes.len());
    &bytes[start..end]
}

/// First word of an image header. A version 1 image (which began with its
/// disk count and could only describe disks of one length) is refused by it.
const IMAGE_MAGIC: u32 = u32::from_le_bytes(*b"PDM2");

/// Serialize a frozen disk array: header `IMAGE_MAGIC u32, disks u32,
/// block_words u32`, then one `u32` block count per disk — disks differ in
/// length, and the image ships what is stored — then every block's words
/// in `(disk, block)`-major order, little-endian.
#[must_use]
pub fn serialize_image(disks: &DiskArray) -> Vec<u8> {
    let snapshot = disks.snapshot();
    let bw = disks.block_words();
    let blocks: usize = snapshot.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(12 + 4 * snapshot.len() + blocks * bw * 8);
    for header in [IMAGE_MAGIC, snapshot.len() as u32, bw as u32] {
        out.extend_from_slice(&header.to_le_bytes());
    }
    for disk in &snapshot {
        out.extend_from_slice(&(disk.len() as u32).to_le_bytes());
    }
    for block in snapshot.iter().flatten() {
        assert_eq!(block.len(), bw);
        for w in block.iter() {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }
    out
}

/// Rebuild a disk array from [`serialize_image`] bytes.
///
/// # Errors
/// A human-readable description of any truncation, foreign header or
/// geometry inconsistency (surfaced on the wire as a protocol error).
pub fn deserialize_image(bytes: &[u8]) -> Result<DiskArray, String> {
    let header = |at: usize| -> Result<usize, String> {
        bytes
            .get(at..at + 4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()) as usize)
            .ok_or_else(|| "image truncated in header".to_string())
    };
    if header(0)? != IMAGE_MAGIC as usize {
        return Err("not a shard image of this version (no per-disk length header)".into());
    }
    let (d, bw) = (header(4)?, header(8)?);
    if d == 0 || bw == 0 {
        return Err(format!("degenerate image geometry: {d} disks × {bw} words"));
    }
    let lens = (0..d)
        .map(|disk| header(12 + 4 * disk))
        .collect::<Result<Vec<_>, _>>()?;
    let body = &bytes[12 + 4 * d..];
    if lens.iter().sum::<usize>().checked_mul(bw * 8) != Some(body.len()) {
        return Err(format!(
            "image body is {} bytes, not what {d} disks of {lens:?} blocks × {bw} words need",
            body.len()
        ));
    }
    let mut disks = DiskArray::new(PdmConfig::new(d, bw), 0);
    let mut body = body.chunks_exact(8);
    let mut words = vec![0 as Word; bw];
    for (disk, &blocks) in lens.iter().enumerate() {
        disks.grow_disks(disk, 1, blocks);
        for block in 0..blocks {
            for (w, b) in words.iter_mut().zip(&mut body) {
                *w = Word::from_le_bytes(b.try_into().unwrap());
            }
            disks.poke(BlockAddr::new(disk, block), &words);
        }
    }
    Ok(disks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_roundtrips_byte_identically() {
        let mut disks = DiskArray::new(PdmConfig::new(3, 8), 4);
        for d in 0..3 {
            for b in 0..4 {
                let words: Vec<Word> = (0..8).map(|w| (d * 100 + b * 10 + w) as Word).collect();
                disks.poke(BlockAddr::new(d, b), &words);
            }
        }
        let image = serialize_image(&disks);
        let back = deserialize_image(&image).unwrap();
        assert_eq!(disks.snapshot(), back.snapshot());
        assert_eq!(image, serialize_image(&back), "re-serialization identical");
    }

    #[test]
    fn ragged_image_roundtrips_byte_identically() {
        let mut disks = DiskArray::new(PdmConfig::new(4, 8), 0);
        disks.grow_disks(0, 2, 3);
        disks.grow_disks(1, 2, 5); // lengths 3, 5, 5, 0
        for (d, blocks) in [3, 5, 5, 0].into_iter().enumerate() {
            for b in 0..blocks {
                disks.poke(BlockAddr::new(d, b), &[(d * 10 + b) as Word; 8]);
            }
        }
        let image = serialize_image(&disks);
        assert_eq!(image.len(), 12 + 4 * 4 + 13 * 8 * 8, "ships what is stored");
        let back = deserialize_image(&image).unwrap();
        assert_eq!((0..4).map(|d| back.blocks_on(d)).collect::<Vec<_>>(), [3, 5, 5, 0]);
        assert_eq!(disks.snapshot(), back.snapshot());
        assert_eq!(image, serialize_image(&back), "re-serialization identical");
    }

    #[test]
    fn a_version_1_header_is_a_typed_protocol_error() {
        // What the rectangular format shipped: disks, block words, blocks
        // per disk, then the body.
        let mut v1 = Vec::new();
        for header in [2u32, 8, 1] {
            v1.extend_from_slice(&header.to_le_bytes());
        }
        v1.extend_from_slice(&[0u8; 2 * 8 * 8]);
        let err = deserialize_image(&v1).map(|_| ()).unwrap_err();
        assert!(err.contains("not a shard image of this version"), "{err}");
        let cluster = crate::ClusterConfig::default();
        match crate::node::install_shard(&cluster, 0, &v1).map(|_| ()) {
            Err(pdm_server::ServeError::Protocol(msg)) => assert!(msg.contains("shard 0 image"), "{msg}"),
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }

    #[test]
    fn empty_array_is_one_chunk() {
        let disks = DiskArray::new(PdmConfig::new(2, 8), 0);
        let image = serialize_image(&disks);
        assert_eq!(chunks_of(image.len()), 1);
        assert_eq!(chunk_slice(&image, 0), &image[..]);
        let back = deserialize_image(&image).unwrap();
        assert_eq!(back.snapshot(), disks.snapshot());
    }

    #[test]
    fn chunking_covers_the_image_exactly() {
        let bytes: Vec<u8> = (0..(CHUNK_BYTES * 2 + 37)).map(|i| i as u8).collect();
        let total = chunks_of(bytes.len());
        assert_eq!(total, 3);
        let mut rebuilt = Vec::new();
        for c in 0..total {
            rebuilt.extend_from_slice(chunk_slice(&bytes, c));
        }
        assert_eq!(rebuilt, bytes);
    }

    #[test]
    fn corrupt_images_are_typed_errors() {
        assert!(deserialize_image(&[1, 2, 3]).is_err());
        let mut disks = DiskArray::new(PdmConfig::new(2, 8), 1);
        disks.poke(BlockAddr::new(0, 0), &[7; 8]);
        let mut image = serialize_image(&disks);
        image.truncate(image.len() - 1);
        assert!(deserialize_image(&image).is_err());
        let zero_disks = [IMAGE_MAGIC.to_le_bytes(), [0; 4], [8, 0, 0, 0]].concat();
        assert!(deserialize_image(&zero_disks).unwrap_err().contains("degenerate"));
    }
}
