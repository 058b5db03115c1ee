//! Binary serialization of core types.
//!
//! Used by the metadata layer to persist feature vectors.
//! All integers are little-endian; formats are length-checked and reject
//! trailing bytes.

use crate::error::{CoreError, Result};
use crate::object::DataObject;
use crate::vector::FeatureVector;

fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if bytes.len() < n {
        return Err(CoreError::Extraction(format!(
            "truncated object bytes: wanted {n}, have {}",
            bytes.len()
        )));
    }
    let (head, tail) = bytes.split_at(n);
    *bytes = tail;
    Ok(head)
}

fn get_u32(bytes: &mut &[u8]) -> Result<u32> {
    let b = take(bytes, 4)?;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

fn get_f32(bytes: &mut &[u8]) -> Result<f32> {
    let b = take(bytes, 4)?;
    Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

/// Serializes a [`DataObject`]: `dim, k`, then per segment `weight` and
/// `dim` components.
pub fn encode_object(obj: &DataObject) -> Vec<u8> {
    let dim = obj.dim();
    let k = obj.num_segments();
    let mut out = Vec::with_capacity(8 + k * (4 + dim * 4));
    out.extend_from_slice(&(dim as u32).to_le_bytes());
    out.extend_from_slice(&(k as u32).to_le_bytes());
    for seg in obj.segments() {
        out.extend_from_slice(&seg.weight.to_le_bytes());
        for &c in seg.vector.components() {
            out.extend_from_slice(&c.to_le_bytes());
        }
    }
    out
}

/// Deserializes a [`DataObject`] from [`encode_object`] bytes.
pub fn decode_object(mut bytes: &[u8]) -> Result<DataObject> {
    let dim = get_u32(&mut bytes)? as usize;
    let k = get_u32(&mut bytes)? as usize;
    if dim == 0 || k == 0 {
        return Err(CoreError::EmptyObject);
    }
    if k > 1 << 24 || dim > 1 << 24 {
        return Err(CoreError::Extraction("implausible object header".into()));
    }
    let mut parts = Vec::with_capacity(k);
    for _ in 0..k {
        let weight = get_f32(&mut bytes)?;
        let mut components = Vec::with_capacity(dim);
        for _ in 0..dim {
            components.push(get_f32(&mut bytes)?);
        }
        parts.push((FeatureVector::new(components)?, weight));
    }
    if !bytes.is_empty() {
        return Err(CoreError::Extraction("trailing object bytes".into()));
    }
    DataObject::new(parts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj() -> DataObject {
        DataObject::new(vec![
            (FeatureVector::new(vec![0.25, -1.5, 3.0]).unwrap(), 1.0),
            (FeatureVector::new(vec![9.0, 0.0, -0.125]).unwrap(), 3.0),
        ])
        .unwrap()
    }

    #[test]
    fn object_roundtrip() {
        let o = obj();
        let bytes = encode_object(&o);
        let back = decode_object(&bytes).unwrap();
        assert_eq!(o, back);
    }

    #[test]
    fn object_rejects_garbage() {
        assert!(decode_object(&[]).is_err());
        let bytes = encode_object(&obj());
        assert!(decode_object(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_object(&extra).is_err());
        // Implausible header.
        let mut bad = Vec::new();
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        bad.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_object(&bad).is_err());
    }
}
