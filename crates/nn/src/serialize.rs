//! Weight (de)serialisation to a compact binary blob.
//!
//! Format (little-endian):
//!
//! ```text
//! magic "PFNN" | u32 version | u32 n_blocks |
//!   per block: u32 name_len | name bytes | u32 len | f32 × len
//! ```

use crate::network::Network;
use crate::NnError;
use prefall_telemetry::wire::{Reader, Writer};

const MAGIC: &[u8; 4] = b"PFNN";
const VERSION: u32 = 1;

/// Serialises a network's parameters.
pub fn save_weights(net: &mut Network) -> Vec<u8> {
    let mut blocks: Vec<(String, Vec<f32>)> = Vec::new();
    net.visit_params(&mut |p| blocks.push((p.name.clone(), p.w.clone())));

    let mut w = Writer::default();
    w.bytes(MAGIC);
    w.u32(VERSION);
    w.u32(blocks.len() as u32);
    for (name, values) in blocks {
        w.u32(name.len() as u32);
        w.bytes(name.as_bytes());
        w.u32(values.len() as u32);
        for v in values {
            w.f32(v);
        }
    }
    w.finish()
}

/// Loads parameters saved by [`save_weights`] into a structurally
/// identical network.
///
/// # Errors
///
/// Returns [`NnError::WeightMismatch`] on a malformed blob (trailing
/// bytes included) or any name/size disagreement with the target
/// network.
pub fn load_weights(net: &mut Network, blob: &[u8]) -> Result<(), NnError> {
    let fail = |reason: &str| NnError::WeightMismatch {
        reason: reason.to_string(),
    };
    let mut r = Reader::new(blob);
    if r.take(4)? != MAGIC {
        return Err(fail("bad magic"));
    }
    if r.u32()? != VERSION {
        return Err(fail("unsupported version"));
    }
    // Every block is at least a name length and a weight count.
    let n_blocks = r.u32()? as usize;
    let mut blocks: Vec<(String, Vec<f32>)> = Vec::with_capacity(r.count(n_blocks, 8)?);
    for _ in 0..n_blocks {
        let name_len = r.u32()? as usize;
        let name = std::str::from_utf8(r.take(name_len)?)
            .map_err(|_| fail("name is not utf-8"))?
            .to_string();
        let len = r.u32()? as usize;
        let mut w = Vec::with_capacity(r.count(len, 4)?);
        for _ in 0..len {
            w.push(r.f32()?);
        }
        blocks.push((name, w));
    }
    r.expect_end()?;

    // Apply, verifying structure.
    let mut i = 0;
    let mut error: Option<NnError> = None;
    net.visit_params(&mut |p| {
        if error.is_some() {
            return;
        }
        match blocks.get(i) {
            Some((name, w)) if *name == p.name && w.len() == p.w.len() => {
                p.w.copy_from_slice(w);
            }
            Some((name, w)) => {
                error = Some(NnError::WeightMismatch {
                    reason: format!(
                        "block {i}: expected {} × {}, blob has {name} × {}",
                        p.name,
                        p.w.len(),
                        w.len()
                    ),
                });
            }
            None => {
                error = Some(NnError::WeightMismatch {
                    reason: format!("blob has too few blocks (network wants > {i})"),
                });
            }
        }
        i += 1;
    });
    if let Some(e) = error {
        return Err(e);
    }
    if i != blocks.len() {
        return Err(fail("blob has extra blocks"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;

    fn make_net(seed: u64) -> Network {
        Network::builder(vec![6])
            .dense(4)
            .unwrap()
            .relu()
            .dense(1)
            .unwrap()
            .build(seed)
    }

    #[test]
    fn roundtrip_preserves_behaviour() {
        let mut a = make_net(1);
        let blob = save_weights(&mut a);
        let mut b = make_net(999); // different init
        load_weights(&mut b, &blob).unwrap();
        let x = vec![0.3; 6];
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn rejects_corrupt_blobs() {
        let mut net = make_net(1);
        assert!(load_weights(&mut net, b"nope").is_err());
        // Claims 2^32 - 1 blocks in 12 bytes: refused, not allocated.
        assert!(load_weights(&mut net, b"PFNN\x01\0\0\0\xff\xff\xff\xff").is_err());
        let blob = save_weights(&mut net);
        let mut truncated = blob.to_vec();
        truncated.truncate(blob.len() - 5);
        assert!(load_weights(&mut net, &truncated).is_err());
        let mut bad_magic = blob.to_vec();
        bad_magic[0] = b'X';
        assert!(load_weights(&mut net, &bad_magic).is_err());
    }

    #[test]
    fn rejects_structural_mismatch() {
        let mut a = make_net(1);
        let blob = save_weights(&mut a);
        let mut different = Network::builder(vec![6]).dense(5).unwrap().build(1);
        assert!(load_weights(&mut different, &blob).is_err());
    }

    #[test]
    fn blob_size_is_reasonable() {
        let mut net = make_net(1);
        let blob = save_weights(&mut net);
        // 4 blocks (2 dense × w+b), parameters 6*4+4+4*1+1 = 33 floats.
        let float_bytes = 33 * 4;
        assert!(blob.len() >= float_bytes);
        assert!(blob.len() < float_bytes + 200, "blob {} bytes", blob.len());
    }
}
