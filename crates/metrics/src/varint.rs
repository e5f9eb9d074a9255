//! LEB128 varints and zigzag signed mapping: the one byte codec behind
//! the run-long logs ([`TimeSeries`](crate::TimeSeries) and the
//! platform's request log).
//!
//! Values are `u128` so a log can pack a full 64-bit quantity together
//! with a tag bit (`dt << 1 | tag`), or a delta between two arbitrary
//! `i64`/`u64` values, without overflow. Small values, which dominate
//! simulated timelines, take one or two bytes.
//!
//! # Examples
//!
//! ```
//! use faasmem_metrics::varint;
//!
//! let mut buf = Vec::new();
//! varint::put(&mut buf, 300);
//! varint::put(&mut buf, varint::zigzag(-2));
//! assert_eq!(buf, [0xac, 0x02, 0x03]);
//! let mut pos = 0;
//! assert_eq!(varint::get(&buf, &mut pos), 300);
//! assert_eq!(varint::unzigzag(varint::get(&buf, &mut pos)), -2);
//! assert_eq!(pos, buf.len());
//! ```

/// Appends `v` to `buf` as an LEB128 varint: seven bits per byte, low
/// group first, the high bit set on every byte but the last.
#[inline]
pub fn put(buf: &mut Vec<u8>, mut v: u128) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Decodes the varint starting at `bytes[*pos]` and advances `pos` past
/// it.
///
/// # Panics
///
/// Panics if the buffer ends inside the varint.
#[inline]
pub fn get(bytes: &[u8], pos: &mut usize) -> u128 {
    let mut v = 0u128;
    let mut shift = 0;
    loop {
        let b = bytes[*pos];
        *pos += 1;
        v |= u128::from(b & 0x7f) << shift;
        if b < 0x80 {
            return v;
        }
        shift += 7;
    }
}

/// Maps a signed value onto the unsigned line so small magnitudes of
/// either sign stay small: 0, −1, 1, −2, … → 0, 1, 2, 3, ….
#[inline]
pub fn zigzag(v: i128) -> u128 {
    ((v << 1) ^ (v >> 127)) as u128
}

/// Inverse of [`zigzag`].
#[inline]
pub fn unzigzag(v: u128) -> i128 {
    (v >> 1) as i128 ^ -((v & 1) as i128)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_extremes() {
        let values = [
            0,
            1,
            127,
            128,
            16_383,
            16_384,
            u128::from(u64::MAX),
            u128::MAX,
        ];
        let mut buf = Vec::new();
        for &v in &values {
            put(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get(&buf, &mut pos), v);
        }
        assert_eq!(pos, buf.len());
        for v in [
            0,
            -1,
            1,
            i128::from(i64::MIN),
            i128::from(u64::MAX),
            i128::MIN,
            i128::MAX,
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert_eq!([zigzag(0), zigzag(-1), zigzag(1), zigzag(-2)], [0, 1, 2, 3]);
    }

    #[test]
    fn small_values_take_one_byte() {
        let mut buf = Vec::new();
        put(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        put(&mut buf, 128);
        assert_eq!(buf.len(), 3);
    }
}
