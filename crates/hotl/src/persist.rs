//! Profile persistence — the paper's "footprint files".
//!
//! Section VII-A: "For each group, the optimizer reads 4 footprints from
//! 4 files. … The file size can be made smaller by storing in binary
//! rather than ASCII format." This module implements exactly that: a
//! compact little-endian binary format for [`SoloProfile`]s, so a study
//! can be profiled once and re-optimized many times.
//!
//! Format (version 1):
//!
//! ```text
//! magic  "CPSP"            4 bytes
//! version u32              4 bytes
//! name len u32 + utf-8 bytes
//! access_rate f64, accesses u64, distinct u64
//! fp sample count u64, then fp samples f64 ×count
//! mrc sample count u64, then mrc samples f64 ×count
//! ```
//!
//! The footprint curve is stored at a stride that caps the file at
//! ~`2 × MAX_FP_SAMPLES` points — the curve is piecewise linear and
//! oversampled at full trace length anyway (the paper's ASCII files are
//! 242–375 KB; ours land in the same range).

use crate::footprint::Footprint;
use crate::metrics::{MissRatioCurve, SoloProfile};
use cps_dstruct::MonotoneCurve;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"CPSP";
const VERSION: u32 = 1;

/// Cap on stored footprint samples; curves longer than this are strided.
pub const MAX_FP_SAMPLES: usize = 32_768;

/// Most miss-ratio samples a profile file may hold; the reader rejects
/// longer curves as corrupt.
pub const MAX_MRC_SAMPLES: usize = 1 << 28;

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}
fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}
fn read_u64(r: &mut impl Read) -> io::Result<u64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(u64::from_le_bytes(b))
}
fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut b = [0u8; 8];
    r.read_exact(&mut b)?;
    Ok(f64::from_le_bytes(b))
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Serializes a profile to the binary footprint-file format.
pub fn write_profile(w: &mut impl Write, profile: &SoloProfile) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    let name = profile.name.as_bytes();
    write_u32(w, name.len() as u32)?;
    w.write_all(name)?;
    write_f64(w, profile.access_rate)?;
    write_u64(w, profile.accesses)?;
    write_u64(w, profile.footprint.distinct)?;
    // Stride the footprint curve down to at most MAX_FP_SAMPLES points
    // (always keeping the final point so fp(n) = m survives).
    let samples = profile.footprint.curve().samples();
    let stride = samples.len().div_ceil(MAX_FP_SAMPLES).max(1);
    let mut kept: Vec<f64> = samples.iter().step_by(stride).copied().collect();
    if !(samples.len() - 1).is_multiple_of(stride) {
        kept.push(*samples.last().expect("curve non-empty"));
    }
    write_u64(w, stride as u64)?;
    write_u64(w, kept.len() as u64)?;
    for v in &kept {
        write_f64(w, *v)?;
    }
    let mrc = profile.mrc.samples();
    write_u64(w, mrc.len() as u64)?;
    for v in mrc {
        write_f64(w, *v)?;
    }
    Ok(())
}

/// Deserializes a profile written by [`write_profile`].
///
/// A strided footprint is re-expanded by linear interpolation onto its
/// original grid, so window arithmetic (`fp(w·s)`) keeps working at the
/// original scale.
pub fn read_profile(r: &mut impl Read) -> io::Result<SoloProfile> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(invalid("not a CPSP profile file"));
    }
    if read_u32(r)? != VERSION {
        return Err(invalid("unsupported CPSP version"));
    }
    let name_len = read_u32(r)? as usize;
    if name_len > 1 << 20 {
        return Err(invalid("unreasonable name length"));
    }
    let mut name_bytes = vec![0u8; name_len];
    r.read_exact(&mut name_bytes)?;
    let name = String::from_utf8(name_bytes).map_err(|_| invalid("name not UTF-8"))?;
    let access_rate = read_f64(r)?;
    // Every consumer divides by or weights with the rate.
    if !(access_rate.is_finite() && access_rate > 0.0) {
        return Err(invalid("access rate is not finite and above 0"));
    }
    let accesses = read_u64(r)?;
    let distinct = read_u64(r)?;
    let stride = read_u64(r)? as usize;
    let count = read_u64(r)? as usize;
    if stride == 0 || count == 0 || count > (1 << 28) {
        return Err(invalid("corrupt footprint header"));
    }
    if accesses > (1 << 28) {
        return Err(invalid("unreasonable access count"));
    }
    // No up-front allocation: a corrupt count must fail at read_exact,
    // not via an allocation bomb.
    let mut kept = Vec::new();
    for _ in 0..count {
        kept.push(read_f64(r)?);
    }
    // Validate before handing to the (panicking) curve constructors: a
    // corrupted file must come back as Err, never as a panic. The
    // tolerances mirror MonotoneCurve::is_non_decreasing and
    // Footprint::from_parts exactly — anything those would reject must
    // be rejected here first.
    if !kept.iter().all(|v| v.is_finite()) {
        return Err(invalid("footprint contains non-finite samples"));
    }
    if !kept.windows(2).all(|w| w[1] >= w[0] - 1e-12) {
        return Err(invalid("footprint is not monotone"));
    }
    if kept[0].abs() >= 1e-9 {
        return Err(invalid("footprint does not start at 0"));
    }
    // Re-expand onto the original grid.
    let full = if stride == 1 {
        kept
    } else {
        let n = accesses as usize;
        let strided = MonotoneCurve::from_samples(kept);
        (0..=n)
            .map(|w| strided.eval(w as f64 / stride as f64))
            .collect()
    };
    let footprint = Footprint::from_parts(MonotoneCurve::from_samples(full), accesses, distinct);
    let mrc_len = read_u64(r)? as usize;
    if mrc_len == 0 || mrc_len > MAX_MRC_SAMPLES {
        return Err(invalid("corrupt MRC header"));
    }
    let mut mrc = Vec::new();
    for _ in 0..mrc_len {
        mrc.push(read_f64(r)?);
    }
    if !mrc.iter().all(|v| (0.0..=1.0).contains(v)) {
        return Err(invalid("miss ratios out of [0, 1]"));
    }
    Ok(SoloProfile {
        name,
        access_rate,
        accesses,
        footprint,
        mrc: MissRatioCurve::from_samples(mrc),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cps_trace::WorkloadSpec;

    fn sample_profile(len: usize) -> SoloProfile {
        let t = WorkloadSpec::Mixture {
            parts: vec![
                (0.9, WorkloadSpec::SequentialLoop { working_set: 30 }),
                (0.1, WorkloadSpec::UniformRandom { region: 150 }),
            ],
        }
        .generate(len, 5);
        SoloProfile::from_trace("roundtrip", &t.blocks, 1.25, 128)
    }

    #[test]
    fn small_profile_round_trips_exactly() {
        let p = sample_profile(10_000);
        let mut buf = Vec::new();
        write_profile(&mut buf, &p).unwrap();
        let q = read_profile(&mut buf.as_slice()).unwrap();
        assert_eq!(q.name, p.name);
        assert_eq!(q.access_rate, p.access_rate);
        assert_eq!(q.accesses, p.accesses);
        assert_eq!(q.footprint.distinct, p.footprint.distinct);
        assert_eq!(q.mrc.samples(), p.mrc.samples());
        assert_eq!(
            q.footprint.curve().samples(),
            p.footprint.curve().samples(),
            "stride 1 must be lossless"
        );
    }

    #[test]
    fn large_profile_round_trips_within_interpolation_error() {
        let p = sample_profile(100_000);
        let mut buf = Vec::new();
        write_profile(&mut buf, &p).unwrap();
        assert!(
            buf.len() < 2 * MAX_FP_SAMPLES * 8 + 128 * 8 + 1024,
            "file size {} should be bounded",
            buf.len()
        );
        let q = read_profile(&mut buf.as_slice()).unwrap();
        for w in [0usize, 1, 10, 100, 5_000, 50_000, 100_000] {
            let a = p.footprint.at(w);
            let b = q.footprint.at(w);
            assert!((a - b).abs() < 0.02 * a.max(1.0), "fp({w}): {a} vs {b}");
        }
        assert_eq!(q.mrc.samples(), p.mrc.samples());
    }

    #[test]
    fn garbage_is_rejected() {
        assert!(read_profile(&mut &b"NOPE"[..]).is_err());
        assert!(read_profile(&mut &b"CPSPxxxx"[..]).is_err());
        let mut truncated = Vec::new();
        write_profile(&mut truncated, &sample_profile(2_000)).unwrap();
        truncated.truncate(truncated.len() / 2);
        assert!(read_profile(&mut truncated.as_slice()).is_err());
    }

    #[test]
    fn wrong_version_rejected() {
        let mut buf = Vec::new();
        write_profile(&mut buf, &sample_profile(1_000)).unwrap();
        buf[4] = 99; // clobber version
        assert!(read_profile(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn bad_access_rates_are_invalid_data() {
        for rate in [f64::NAN, f64::INFINITY, -1.0, 0.0, -0.0] {
            let mut p = sample_profile(1_000);
            p.access_rate = rate;
            let mut buf = Vec::new();
            write_profile(&mut buf, &p).unwrap();
            let err = read_profile(&mut buf.as_slice()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "rate {rate}");
            assert!(
                err.to_string().contains("access rate"),
                "rate {rate}: {err}"
            );
        }
    }
}
