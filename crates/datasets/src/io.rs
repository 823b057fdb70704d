//! Dataset (de)serialization: CSV for interchange, a compact binary format
//! for large files.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use epsgrid::DynPoints;

/// Writes points as CSV (one point per line, coordinates comma-separated).
pub fn write_csv<W: Write>(writer: W, points: &DynPoints) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    for p in points.iter() {
        let mut first = true;
        for c in p {
            if !first {
                write!(w, ",")?;
            }
            write!(w, "{c}")?;
            first = false;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Reads CSV points; dimensionality is inferred from the first line.
pub fn read_csv<R: Read>(reader: R) -> io::Result<DynPoints> {
    let r = BufReader::new(reader);
    let mut dims = 0usize;
    let mut coords: Vec<f32> = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let row: Result<Vec<f32>, _> = trimmed.split(',').map(|t| t.trim().parse()).collect();
        let row = row.map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("line {}: {e}", lineno + 1),
            )
        })?;
        if dims == 0 {
            dims = row.len();
            if dims == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "empty first row",
                ));
            }
        } else if row.len() != dims {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "line {}: expected {dims} coordinates, got {}",
                    lineno + 1,
                    row.len()
                ),
            ));
        }
        coords.extend(row);
    }
    if dims == 0 {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "no data rows"));
    }
    Ok(DynPoints::from_interleaved(dims, coords))
}

const BIN_MAGIC: &[u8; 8] = b"SJPTS\x01\0\0";

/// Writes points in the compact binary format (magic, dims, count,
/// little-endian `f32` coordinates).
pub fn write_binary<W: Write>(writer: W, points: &DynPoints) -> io::Result<()> {
    let mut w = BufWriter::new(writer);
    w.write_all(BIN_MAGIC)?;
    w.write_all(&(points.dims() as u32).to_le_bytes())?;
    w.write_all(&(points.len() as u64).to_le_bytes())?;
    for &c in points.raw() {
        w.write_all(&c.to_le_bytes())?;
    }
    w.flush()
}

/// Reads points in the compact binary format.
pub fn read_binary<R: Read>(reader: R) -> io::Result<DynPoints> {
    let mut r = BufReader::new(reader);
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != BIN_MAGIC {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
    }
    let mut dims_buf = [0u8; 4];
    r.read_exact(&mut dims_buf)?;
    let dims = u32::from_le_bytes(dims_buf) as usize;
    let mut count_buf = [0u8; 8];
    r.read_exact(&mut count_buf)?;
    let count = u64::from_le_bytes(count_buf) as usize;
    if dims == 0 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "zero dimensionality",
        ));
    }
    let total = count
        .checked_mul(dims)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "size overflow"))?;
    // The buffer grows with the coordinates the stream actually delivers,
    // never with the header's claim: a header promising more points than
    // the file holds is a truncated file, not an allocation request.
    let mut coords = Vec::new();
    let mut buf = [0u8; 4];
    for read in 0..total {
        r.read_exact(&mut buf).map_err(|e| match e.kind() {
            io::ErrorKind::UnexpectedEof => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("header promises {count} points of {dims} dims but the data ends after {read} coordinates"),
            ),
            _ => e,
        })?;
        coords.push(f32::from_le_bytes(buf));
    }
    Ok(DynPoints::from_interleaved(dims, coords))
}

/// Convenience: writes a dataset to a path, choosing the format from the
/// extension (`.csv` → CSV, anything else → binary).
pub fn write_path(path: &Path, points: &DynPoints) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    if path.extension().is_some_and(|e| e == "csv") {
        write_csv(f, points)
    } else {
        write_binary(f, points)
    }
}

/// Convenience: reads a dataset from a path, choosing the format from the
/// extension.
pub fn read_path(path: &Path) -> io::Result<DynPoints> {
    let f = std::fs::File::open(path)?;
    if path.extension().is_some_and(|e| e == "csv") {
        read_csv(f)
    } else {
        read_binary(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DynPoints {
        DynPoints::from_interleaved(3, vec![1.0, 2.0, 3.5, -4.25, 0.0, 1e6])
    }

    #[test]
    fn csv_roundtrip() {
        let pts = sample();
        let mut buf = Vec::new();
        write_csv(&mut buf, &pts).unwrap();
        let back = read_csv(buf.as_slice()).unwrap();
        assert_eq!(back, pts);
    }

    #[test]
    fn binary_roundtrip() {
        let pts = sample();
        let mut buf = Vec::new();
        write_binary(&mut buf, &pts).unwrap();
        let back = read_binary(buf.as_slice()).unwrap();
        assert_eq!(back, pts);
    }

    #[test]
    fn csv_rejects_ragged_rows() {
        let data = "1.0,2.0\n3.0\n";
        assert!(read_csv(data.as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_garbage() {
        let data = "1.0,banana\n";
        assert!(read_csv(data.as_bytes()).is_err());
    }

    #[test]
    fn csv_rejects_empty() {
        assert!(read_csv("".as_bytes()).is_err());
    }

    #[test]
    fn binary_header_claiming_more_points_than_the_data_is_a_typed_error() {
        // A bare 20-byte header that promises 2^40 2-D points and then ends.
        let mut data = BIN_MAGIC.to_vec();
        data.extend_from_slice(&2u32.to_le_bytes());
        data.extend_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(data.len(), 20);
        let err = read_binary(data.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            err.to_string().contains("ends after 0 coordinates"),
            "{err}"
        );
        // A real file cut short mid-coordinate is the same typed error.
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.truncate(buf.len() - 2);
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let data = b"NOTMAGIC\0\0\0\0";
        assert!(read_binary(&data[..]).is_err());
    }

    #[test]
    fn csv_skips_blank_lines() {
        let data = "1.0,2.0\n\n3.0,4.0\n";
        let pts = read_csv(data.as_bytes()).unwrap();
        assert_eq!(pts.len(), 2);
    }
}
