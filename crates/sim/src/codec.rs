//! The one on-disk file container, and the exact-value primitives every
//! persisted type codec is built from.
//!
//! Snapshots ([`crate::snapshot`]), distributed-sweep manifests and
//! per-point result files ([`crate::distrib`]) are all the same
//! container: exactly two lines of JSON, differing only in the `format`
//! tag and `version`:
//!
//! ```text
//! {"format":"<tag>","version":<u32>,"checksum":"0x<fnv1a64>"}
//! {...payload...}
//! ```
//!
//! The checksum is FNV-1a 64 over the payload line's exact bytes, so a
//! torn or bit-flipped file fails closed. [`wrap`] is the only function
//! that formats a header and [`unwrap`] the only one that validates it;
//! every failure is a typed [`SimError::CorruptSnapshot`] or
//! [`SimError::SnapshotVersionMismatch`], never a panic.
//!
//! Payloads encode every `u64` and every exact `f64` (as `f64::to_bits`)
//! as `"0x%016x"` hex strings, because the workspace's JSON parser reads
//! plain numbers as `f64` and would silently round anything above 2⁵³.

use crate::SimError;
use greencell_stochastic::Series;
use greencell_trace::json::{parse, Value};
use std::fmt::Debug;
use std::path::Path;

/// FNV-1a 64-bit over `bytes` — the workspace's dependency-free content
/// checksum (file containers, scenario and state fingerprints).
#[must_use]
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint of a value via its `Debug` form. Rust's `f64` Debug
/// formatting is shortest-roundtrip, so equal fingerprints mean equal
/// values for the plain-old-data types this is used on (scenarios, fault
/// plans).
pub(crate) fn fingerprint_debug<T: Debug>(value: &T) -> u64 {
    fnv1a_64(format!("{value:?}").as_bytes())
}

/// The complete two-line file image: header (`format`, `version`, payload
/// checksum) and `payload`.
#[must_use]
pub(crate) fn wrap(format: &str, version: u32, payload: &str) -> String {
    let checksum = fnv1a_64(payload.as_bytes());
    format!(
        "{{\"format\":\"{format}\",\"version\":{version},\"checksum\":\"0x{checksum:016x}\"}}\n{payload}\n"
    )
}

/// Validates a [`wrap`] image — two lines, the expected `format` tag and
/// `version`, a matching checksum — and parses its payload. `path` is
/// used only for error context.
///
/// # Errors
///
/// [`SimError::SnapshotVersionMismatch`] when the header declares another
/// version; [`SimError::CorruptSnapshot`] for every other failure (torn
/// file, wrong format tag, bad checksum, unparseable payload).
pub(crate) fn unwrap(
    format: &str,
    version: u32,
    text: &str,
    path: &str,
) -> Result<Value, SimError> {
    let corrupt = corrupt(path);
    let (header_line, rest) = text
        .split_once('\n')
        .ok_or_else(|| corrupt("missing payload line".to_string()))?;
    let payload = rest.strip_suffix('\n').unwrap_or(rest);
    if payload.contains('\n') {
        return Err(corrupt("more than two lines".to_string()));
    }
    let header = parse(header_line).map_err(|e| corrupt(format!("unparseable header: {e}")))?;
    match header.get("format").and_then(Value::as_str) {
        Some(tag) if tag == format => {}
        Some(other) => return Err(corrupt(format!("format is `{other}`, expected `{format}`"))),
        None => return Err(corrupt("header has no format tag".to_string())),
    }
    let found = header
        .get("version")
        .and_then(Value::as_f64)
        .ok_or_else(|| corrupt("header has no version".to_string()))?;
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let found = if found.fract() == 0.0 && (0.0..=f64::from(u32::MAX)).contains(&found) {
        found as u32
    } else {
        return Err(corrupt(format!("version `{found}` is not a u32")));
    };
    if found != version {
        return Err(SimError::SnapshotVersionMismatch {
            path: path.to_string(),
            expected: version,
            found,
        });
    }
    let declared = header
        .get("checksum")
        .ok_or_else(|| corrupt("header has no checksum".to_string()))
        .and_then(|v| u64_of(v).map_err(|e| corrupt(format!("bad checksum field: {e}"))))?;
    let actual = fnv1a_64(payload.as_bytes());
    if declared != actual {
        return Err(corrupt(format!(
            "checksum mismatch: header declares 0x{declared:016x}, payload hashes to 0x{actual:016x}"
        )));
    }
    parse(payload).map_err(|e| corrupt(format!("unparseable payload: {e}")))
}

/// Reads a container file. Bytes that are not UTF-8 cannot be an image:
/// they come back replaced by U+FFFD, so the text fails [`unwrap`]'s
/// checksum or header check as a typed [`SimError::CorruptSnapshot`]
/// instead of surfacing as an I/O error. Only a failed read is an
/// `Err` (callers tell `NotFound` apart by its kind).
pub(crate) fn read_image(path: &Path) -> std::io::Result<String> {
    Ok(String::from_utf8_lossy(&std::fs::read(path)?).into_owned())
}

/// Builds [`SimError::CorruptSnapshot`]s for the file at `path`.
pub(crate) fn corrupt(path: &str) -> impl Fn(String) -> SimError + '_ {
    move |detail| SimError::CorruptSnapshot {
        path: path.to_string(),
        detail,
    }
}

// ---------------------------------------------------------------------------
// Exact-value JSON encoding: u64 and f64 as "0x%016x" hex strings.
// ---------------------------------------------------------------------------

pub(crate) fn hex_u64(x: u64) -> String {
    format!("\"0x{x:016x}\"")
}

pub(crate) fn hex_f64(x: f64) -> String {
    hex_u64(x.to_bits())
}

pub(crate) fn hex_u64_list<I: IntoIterator<Item = u64>>(xs: I) -> String {
    let body: Vec<String> = xs.into_iter().map(hex_u64).collect();
    format!("[{}]", body.join(","))
}

pub(crate) fn hex_f64_list(xs: &[f64]) -> String {
    hex_u64_list(xs.iter().map(|x| x.to_bits()))
}

pub(crate) fn get<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key `{key}`"))
}

pub(crate) fn arr(v: &Value) -> Result<&[Value], String> {
    v.as_array().ok_or_else(|| "expected an array".to_string())
}

pub(crate) fn str_of<'a>(v: &'a Value, what: &str) -> Result<&'a str, String> {
    v.as_str().ok_or_else(|| format!("{what} must be a string"))
}

pub(crate) fn u64_of(v: &Value) -> Result<u64, String> {
    let s = v
        .as_str()
        .ok_or_else(|| "expected a \"0x…\" hex string".to_string())?;
    let digits = s
        .strip_prefix("0x")
        .ok_or_else(|| format!("expected a 0x prefix, got `{s}`"))?;
    u64::from_str_radix(digits, 16).map_err(|e| format!("bad hex `{s}`: {e}"))
}

pub(crate) fn f64_of(v: &Value) -> Result<f64, String> {
    Ok(f64::from_bits(u64_of(v)?))
}

pub(crate) fn usize_of(v: &Value) -> Result<usize, String> {
    usize::try_from(u64_of(v)?).map_err(|e| format!("count overflows usize: {e}"))
}

pub(crate) fn bool_of(v: &Value) -> Result<bool, String> {
    v.as_bool().ok_or_else(|| "expected a bool".to_string())
}

pub(crate) fn u64_list_of(v: &Value) -> Result<Vec<u64>, String> {
    arr(v)?.iter().map(u64_of).collect()
}

pub(crate) fn f64_list_of(v: &Value) -> Result<Vec<f64>, String> {
    arr(v)?.iter().map(f64_of).collect()
}

pub(crate) fn series_of(v: &Value) -> Result<Series, String> {
    Ok(f64_list_of(v)?.into_iter().collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hex_roundtrip_is_exact() {
        for x in [0.0_f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE, 1e300] {
            let v = parse(&hex_f64(x)).unwrap();
            assert_eq!(f64_of(&v).unwrap().to_bits(), x.to_bits());
        }
        let v = parse(&hex_u64(u64::MAX)).unwrap();
        assert_eq!(u64_of(&v).unwrap(), u64::MAX);
    }

    #[test]
    fn container_round_trips_and_rejects_other_tags_and_versions() {
        let image = wrap("greencell-test", 4, "{\"x\":\"0x0000000000000001\"}");
        let value = unwrap("greencell-test", 4, &image, "t").expect("valid image");
        assert_eq!(u64_of(get(&value, "x").unwrap()).unwrap(), 1);
        assert!(matches!(
            unwrap("greencell-other", 4, &image, "t"),
            Err(SimError::CorruptSnapshot { .. })
        ));
        assert!(matches!(
            unwrap("greencell-test", 5, &image, "t"),
            Err(SimError::SnapshotVersionMismatch {
                expected: 5,
                found: 4,
                ..
            })
        ));
        let bad_version = image.replace("\"version\":4", "\"version\":-1");
        assert!(matches!(
            unwrap("greencell-test", 4, &bad_version, "t"),
            Err(SimError::CorruptSnapshot { .. })
        ));
    }
}
