//! MatrixMarket coordinate-format I/O.
//!
//! Supports the subset of the format used by the University of Florida
//! collection: `matrix coordinate {real|integer} {general|symmetric}`.
//! Symmetric files store only the lower triangle; reading expands them.
//!
//! The reader is built for multi-million-entry files: the stream is
//! slurped once into a byte buffer, the entry region is split into
//! line-aligned chunks that parse concurrently on a [`ParContext`], and
//! the per-chunk triplets are merged back **in file order**. Every number
//! goes through [`crate::scan`]; an entry line is exactly `row col value`.
//!
//! The chunks go straight to the one CSR build
//! [`CooMatrix::to_csr`](crate::CooMatrix::to_csr) uses: duplicates sum in
//! file order, explicit zeros are dropped, the result does not depend on
//! the thread count, and a row count whose row pointers cannot be
//! allocated is an error.

use crate::{coo, scan, CsrMatrix, ParContext, Result, SparseError};
use std::io::{Read, Write};
use std::path::Path;

/// Reads a MatrixMarket coordinate file into CSR.
///
/// Uses one parse thread per available core (capped at 8); see
/// [`read_matrix_market_with`] to pin the thread count. The result is
/// identical for every thread count.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix> {
    let threads =
        std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1).min(8);
    read_matrix_market_with(reader, ParContext::new(threads))
}

/// Reads a MatrixMarket file from `path` (buffered, chunk-parallel).
pub fn read_matrix_market_path<P: AsRef<Path>>(path: P) -> Result<CsrMatrix> {
    let file = std::fs::File::open(path.as_ref())
        .map_err(|e| SparseError::Parse(format!("open {:?}: {e}", path.as_ref())))?;
    read_matrix_market(file)
}

/// Reads a MatrixMarket coordinate file into CSR with an explicit
/// [`ParContext`] for the chunk-parallel entry parse.
pub fn read_matrix_market_with<R: Read>(mut reader: R, ctx: ParContext) -> Result<CsrMatrix> {
    // One buffered slurp: a single large read beats line-at-a-time
    // BufReader traffic and gives the chunk splitter random access.
    let mut bytes = Vec::new();
    reader
        .read_to_end(&mut bytes)
        .map_err(|e| SparseError::Parse(e.to_string()))?;
    let (header, body) = read_header(&bytes)?;
    let chunks = parse_entries(&bytes, body, &header, ctx)?;
    let runs: Vec<coo::Run<'_>> =
        chunks.iter().map(|ch| (&ch.rows[..], &ch.cols[..], &ch.vals[..])).collect();
    coo::build_csr(header.n_rows, header.n_cols, &runs)
}

/// Writes a CSR matrix in MatrixMarket `general` coordinate format.
pub fn write_matrix_market<W: Write>(a: &CsrMatrix, mut writer: W) -> std::io::Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by block-async-relax")?;
    writeln!(writer, "{} {} {}", a.n_rows(), a.n_cols(), a.nnz())?;
    for r in 0..a.n_rows() {
        for (c, v) in a.row_iter(r) {
            writeln!(writer, "{} {} {:.17e}", r + 1, c + 1, v)?;
        }
    }
    Ok(())
}

/// What the header and size line declare.
struct Header {
    n_rows: usize,
    n_cols: usize,
    nnz: usize,
    symmetric: bool,
}

/// Parses the banner and the size line; returns them with the offset of
/// the entry region.
fn read_header(bytes: &[u8]) -> Result<(Header, usize)> {
    let mut lines = scan::Cursor::new(bytes);
    if lines.at_end() {
        return Err(SparseError::Parse("empty file".into()));
    }
    let header = std::str::from_utf8(lines.skip_line())
        .map_err(|_| SparseError::Parse("header is not valid UTF-8".into()))?
        .to_string();
    let head = header.to_ascii_lowercase();
    if !head.starts_with("%%matrixmarket") {
        return Err(SparseError::Parse("missing %%MatrixMarket header".into()));
    }
    let fields: Vec<&str> = head.split_whitespace().collect();
    if fields.len() < 5 || fields[1] != "matrix" || fields[2] != "coordinate" {
        return Err(SparseError::Parse(format!("unsupported header: {header}")));
    }
    match fields[3] {
        "real" | "integer" => {}
        "pattern" => {
            return Err(SparseError::Parse(
                "unsupported MatrixMarket field qualifier `pattern`: the file \
                 stores structure only (no numeric values); only `real` and \
                 `integer` coordinate matrices are supported"
                    .into(),
            ))
        }
        "complex" => {
            return Err(SparseError::Parse(
                "unsupported MatrixMarket field qualifier `complex`: entries \
                 carry two values (re, im); only `real` and `integer` \
                 coordinate matrices are supported"
                    .into(),
            ))
        }
        other => {
            return Err(SparseError::Parse(format!("unsupported field type: {other}")))
        }
    }
    let symmetric = match fields[4] {
        "general" => false,
        "symmetric" => true,
        q @ ("skew-symmetric" | "hermitian") => {
            return Err(SparseError::Parse(format!(
                "unsupported MatrixMarket symmetry qualifier `{q}`: only \
                 `general` and `symmetric` are supported"
            )))
        }
        other => return Err(SparseError::Parse(format!("unsupported symmetry: {other}"))),
    };

    // Skip comments, read size line.
    let mut size_line = None;
    while !lines.at_end() {
        let t = lines.skip_line().trim_ascii();
        if !(t.is_empty() || t[0] == b'%') {
            size_line = Some(t);
            break;
        }
    }
    let size_line = size_line.ok_or_else(|| SparseError::Parse("missing size line".into()))?;
    let mut dims = Vec::new();
    let mut cur = scan::Cursor::new(size_line);
    while let Some(t) = cur.token() {
        dims.push(scan::parse_usize(t).ok_or_else(|| {
            SparseError::Parse(format!("bad size token {}", String::from_utf8_lossy(t)))
        })?);
    }
    if dims.len() != 3 {
        return Err(SparseError::Parse("size line must have 3 numbers".into()));
    }
    let header = Header { n_rows: dims[0], n_cols: dims[1], nnz: dims[2], symmetric };
    Ok((header, lines.pos()))
}

/// Parses the entry region `bytes[start..]` in line-aligned chunks on
/// `ctx` and checks the entry count. The first error in file order wins.
fn parse_entries(
    bytes: &[u8],
    start: usize,
    header: &Header,
    ctx: ParContext,
) -> Result<Vec<ParsedChunk>> {
    let ranges = chunk_ranges(bytes, start, ctx.n_threads.max(1));
    // The declared count sizes the chunks' vectors, but only as far as
    // the bytes could hold it: an entry line takes at least 6 bytes (5 if
    // it ends the file), so no size line makes this allocate past them.
    let entries = header.nnz.min((bytes.len().saturating_sub(start) + 1) / 6);
    let stored = if header.symmetric { 2 * entries } else { entries };
    let cap_hint = stored.div_ceil(ranges.len().max(1));
    let mut chunks = ctx.map_indexed(ranges.len(), |i| {
        let (s, e) = ranges[i];
        parse_entry_chunk(&bytes[s..e], header, cap_hint)
    });
    for ch in chunks.iter_mut() {
        if let Some(err) = ch.err.take() {
            return Err(err);
        }
    }
    let read: usize = chunks.iter().map(|c| c.read).sum();
    if read != header.nnz {
        return Err(SparseError::Parse(format!(
            "expected {} entries, found {read}",
            header.nnz
        )));
    }
    Ok(chunks)
}

/// Splits `bytes[start..]` into at most `n_chunks` ranges that all end on
/// a line boundary (or the end of the buffer).
fn chunk_ranges(bytes: &[u8], start: usize, n_chunks: usize) -> Vec<(usize, usize)> {
    let len = bytes.len();
    let mut ranges = Vec::new();
    if start >= len {
        return ranges;
    }
    let target = (len - start).div_ceil(n_chunks.max(1));
    let mut s = start;
    while s < len {
        let mut e = (s + target).min(len);
        while e < len && bytes[e - 1] != b'\n' {
            e += 1;
        }
        ranges.push((s, e));
        s = e;
    }
    ranges
}

/// Triplets parsed from one chunk, in file order (symmetric mirrors are
/// interleaved right after their source entry, matching the sequential
/// `push_sym` order).
struct ParsedChunk {
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
    /// Entry lines consumed (mirrors not counted), for the nnz check.
    read: usize,
    /// First parse error in this chunk, if any.
    err: Option<SparseError>,
}

impl ParsedChunk {
    fn push(&mut self, r: usize, c: usize, v: f64) {
        self.rows.push(r);
        self.cols.push(c);
        self.vals.push(v);
    }
}

fn parse_entry_chunk(bytes: &[u8], header: &Header, cap_hint: usize) -> ParsedChunk {
    let &Header { n_rows, n_cols, symmetric, .. } = header;
    let mut out = ParsedChunk {
        rows: Vec::with_capacity(cap_hint),
        cols: Vec::with_capacity(cap_hint),
        vals: Vec::with_capacity(cap_hint),
        read: 0,
        err: None,
    };
    let mut cur = scan::Cursor::new(bytes);
    while !cur.at_end() {
        let line = cur.clone();
        let first = match cur.token() {
            Some(t) if t[0] != b'%' => t,
            _ => {
                // A blank or comment line.
                cur.skip_line();
                continue;
            }
        };
        let Some((r, c, v)) = parse_entry(first, &mut cur) else {
            out.err = Some(SparseError::Parse(format!(
                "bad entry line: {}",
                String::from_utf8_lossy(line.clone().skip_line().trim_ascii())
            )));
            return out;
        };
        cur.skip_line();
        if r == 0 || c == 0 {
            out.err = Some(SparseError::Parse("MatrixMarket indices are 1-based".into()));
            return out;
        }
        let (r, c) = (r - 1, c - 1);
        if r >= n_rows || c >= n_cols {
            out.err =
                Some(SparseError::IndexOutOfBounds { row: r, col: c, n_rows, n_cols });
            return out;
        }
        out.push(r, c, v);
        if symmetric && r != c {
            if c >= n_rows || r >= n_cols {
                out.err =
                    Some(SparseError::IndexOutOfBounds { row: c, col: r, n_rows, n_cols });
                return out;
            }
            out.push(c, r, v);
        }
        out.read += 1;
    }
    out
}

/// An entry line's `row col value`, from its `first` token and the
/// rest of the line; `None` unless the line is exactly those three
/// tokens.
fn parse_entry(first: &[u8], line: &mut scan::Cursor<'_>) -> Option<(usize, usize, f64)> {
    let r = scan::parse_usize(first)?;
    let c = scan::parse_usize(line.token()?)?;
    let v = scan::parse_f64(line.token()?)?;
    line.token().is_none().then_some((r, c, v))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::tests::{assert_bits_eq, oracle};
    use crate::gen::{laplacian_2d_5pt, random_diag_dominant};
    use crate::CooMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_general() {
        let mut coo = CooMatrix::new(3, 4);
        coo.push(0, 0, 1.5).unwrap();
        coo.push(2, 3, -2.25).unwrap();
        coo.push(1, 1, 1e-30).unwrap();
        let a = coo.to_csr();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn read_symmetric_expands() {
        let text = "%%MatrixMarket matrix coordinate real symmetric\n\
                    % comment\n\
                    2 2 2\n\
                    1 1 4.0\n\
                    2 1 -1.0\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 1), -1.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(0, 0), 4.0);
        assert_eq!(a.nnz(), 3);
    }

    #[test]
    fn symmetric_roundtrips_against_full_matrix() {
        // Write only the lower triangle of a symmetric Laplacian by hand;
        // the reader must expand it to exactly the assembled full matrix.
        let a = laplacian_2d_5pt(7);
        let mut text = String::from("%%MatrixMarket matrix coordinate real symmetric\n");
        let mut count = 0usize;
        let mut body = String::new();
        for r in 0..a.n_rows() {
            for (c, v) in a.row_iter(r) {
                if c <= r {
                    body.push_str(&format!("{} {} {:.17e}\n", r + 1, c + 1, v));
                    count += 1;
                }
            }
        }
        text.push_str(&format!("{} {} {}\n", a.n_rows(), a.n_cols(), count));
        text.push_str(&body);
        let b = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("not a matrix\n".as_bytes()).is_err());
        assert!(read_matrix_market(
            "%%MatrixMarket matrix array real general\n1 1\n1.0\n".as_bytes()
        )
        .is_err());
        assert!(read_matrix_market("%%MatrixMarket matrix coordinate\n".as_bytes()).is_err());
        assert!(read_matrix_market("".as_bytes()).is_err());
    }

    #[test]
    fn rejects_pattern_and_complex_naming_the_qualifier() {
        let pat = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n";
        let err = read_matrix_market(pat.as_bytes()).unwrap_err().to_string();
        assert!(err.contains("`pattern`"), "error must name the qualifier: {err}");

        let cx = "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0 0.0\n";
        let err = read_matrix_market(cx.as_bytes()).unwrap_err().to_string();
        assert!(err.contains("`complex`"), "error must name the qualifier: {err}");

        let skew = "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n";
        let err = read_matrix_market(skew.as_bytes()).unwrap_err().to_string();
        assert!(err.contains("`skew-symmetric`"), "error must name the qualifier: {err}");
    }

    #[test]
    fn rejects_wrong_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn a_huge_declared_count_is_an_error_not_an_allocation() {
        for (qualifier, declared) in [("general", usize::MAX), ("symmetric", usize::MAX / 2 + 1)] {
            let text = format!(
                "%%MatrixMarket matrix coordinate real {qualifier}\n2 2 {declared}\n1 1 1.0\n"
            );
            let err = read_matrix_market(text.as_bytes()).unwrap_err().to_string();
            assert!(err.contains("found 1"), "{qualifier}: {err}");
        }
    }

    #[test]
    fn rejects_zero_based_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_indices() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
                    % a\n\n% b\n\
                    1 1 1\n\n\
                    1 1 3.5\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), 3.5);
    }

    #[test]
    fn chunk_parallel_parse_is_bit_identical_to_sequential() {
        // Big enough that every thread count actually splits into
        // multiple chunks; duplicates exercise the stable-merge ordering.
        let a = laplacian_2d_5pt(24);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        buf.extend_from_slice(b"% trailing comment\n");
        let seq = read_matrix_market_with(&buf[..], ParContext::new(1)).unwrap();
        for threads in [2usize, 3, 4, 8] {
            let par = read_matrix_market_with(&buf[..], ParContext::new(threads)).unwrap();
            assert_eq!(seq, par, "threads {threads}");
        }
        assert_eq!(seq, a);
    }

    #[test]
    fn error_in_late_chunk_still_reported() {
        let a = laplacian_2d_5pt(16);
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        buf.extend_from_slice(b"1 1 not-a-number\n");
        for threads in [1usize, 4] {
            let err = read_matrix_market_with(&buf[..], ParContext::new(threads))
                .unwrap_err()
                .to_string();
            assert!(err.contains("bad entry line"), "threads {threads}: {err}");
        }
    }

    #[test]
    fn path_reader_roundtrips() {
        let a = laplacian_2d_5pt(5);
        let path = std::env::temp_dir().join(format!(
            "abr_io_test_{}_{:?}.mtx",
            std::process::id(),
            std::thread::current().id()
        ));
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        std::fs::write(&path, &buf).unwrap();
        let b = read_matrix_market_path(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(a, b);
        assert!(read_matrix_market_path("/nonexistent/abr.mtx").is_err());
    }

    #[test]
    fn rejects_extra_tokens_on_an_entry_line() {
        let junk = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 junk\n";
        // A complex file mislabelled `real`: each entry carries (re, im).
        let complex = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0 0.0\n";
        for text in [junk, complex] {
            for threads in [1usize, 4] {
                let err = read_matrix_market_with(text.as_bytes(), ParContext::new(threads))
                    .unwrap_err()
                    .to_string();
                assert!(err.contains("bad entry line"), "threads {threads}: {err}");
            }
        }
    }

    /// The entry lines of `text`, in an order drawn from `seed`, under the
    /// same banner and size line.
    fn shuffled(text: &str, seed: u64) -> String {
        let (head, entries): (Vec<&str>, Vec<&str>) = {
            let size_at = text
                .lines()
                .position(|l| !l.trim().is_empty() && !l.starts_with('%'))
                .expect("size line");
            let lines: Vec<&str> = text.lines().collect();
            (lines[..=size_at].to_vec(), lines[size_at + 1..].to_vec())
        };
        let mut entries = entries;
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.gen_range(0..=i));
        }
        let mut out = head.join("\n");
        for e in entries {
            out.push('\n');
            out.push_str(e);
        }
        out.push('\n');
        out
    }

    /// The oracle's CSR of `text`'s entries, read the plain way: the
    /// entry lines in file order, each mirror right after its source.
    fn oracle_of(text: &str) -> CsrMatrix {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty() && !l.starts_with('%'));
        let symmetric = text.lines().next().unwrap().contains("symmetric");
        let numbers = |l: &str| l.split_whitespace().map(str::to_string).collect::<Vec<_>>();
        let size = numbers(lines.next().unwrap());
        let mut triplets = Vec::new();
        for l in lines {
            let t = numbers(l);
            let (r, c): (usize, usize) = (t[0].parse().unwrap(), t[1].parse().unwrap());
            let v: f64 = t[2].parse().unwrap();
            triplets.push((r - 1, c - 1, v));
            if symmetric && r != c {
                triplets.push((c - 1, r - 1, v));
            }
        }
        oracle(size[0].parse().unwrap(), size[1].parse().unwrap(), triplets)
    }

    /// Reads `text` at `threads` and asserts the oracle's matrix, bit
    /// for bit; returns it.
    fn reads_as_oracle(text: &str, threads: usize) -> CsrMatrix {
        let read = read_matrix_market_with(text.as_bytes(), ParContext::new(threads)).unwrap();
        assert_bits_eq(&read, &oracle_of(text), &format!("threads {threads}"));
        read
    }

    /// `a`'s lower triangle, column by column, under a `symmetric`
    /// header: the layout of the University of Florida collection.
    fn uf_layout(a: &CsrMatrix) -> String {
        let at = a.transpose();
        let mut body = String::new();
        let mut count = 0;
        for c in 0..at.n_rows() {
            for (r, v) in at.row_iter(c).filter(|&(r, _)| r >= c) {
                body.push_str(&format!("{} {} {v:?}\n", r + 1, c + 1));
                count += 1;
            }
        }
        format!(
            "%%MatrixMarket matrix coordinate real symmetric\n{} {} {count}\n{body}",
            a.n_rows(),
            a.n_cols()
        )
    }

    /// lap8, a 9x9 Laplacian, a random system and a file with explicit
    /// zeros, as `write_matrix_market` writes them.
    fn sample_files() -> Vec<String> {
        let mut texts = vec![include_str!("../../exp/data/lap8.mtx").to_string()];
        for a in [laplacian_2d_5pt(9), random_diag_dominant(300, 4, 1.5, 7)] {
            let mut buf = Vec::new();
            write_matrix_market(&a, &mut buf).unwrap();
            texts.push(String::from_utf8(buf).unwrap());
        }
        // Explicit zeros (one of them negative) are dropped.
        texts.push(
            "%%MatrixMarket matrix coordinate real general\n3 3 5\n\
             1 1 2.0\n1 3 0.0\n2 2 -0.0\n2 3 1.5\n3 3 1e-300\n"
                .into(),
        );
        texts
    }

    #[test]
    fn one_pass_build_equals_the_coo_path_on_the_same_entries() {
        for text in &sample_files() {
            for threads in [1usize, 3, 4] {
                let in_order = reads_as_oracle(text, threads);
                for seed in 0..3 {
                    let mixed = shuffled(text, seed);
                    assert_ne!(&mixed, text, "seed {seed} left the file in order");
                    let read = reads_as_oracle(&mixed, threads);
                    assert_bits_eq(&in_order, &read, &format!("threads {threads}, seed {seed}"));
                }
            }
        }
    }

    #[test]
    fn the_uf_layout_reads_as_the_oracle_and_the_full_matrix() {
        for text in &sample_files() {
            let a = read_matrix_market(text.as_bytes()).unwrap();
            let uf = uf_layout(&a);
            for threads in [1usize, 3, 4] {
                let read = reads_as_oracle(&uf, threads);
                if a == a.transpose() {
                    assert_bits_eq(&read, &a, &format!("threads {threads}"));
                }
            }
        }
    }

    #[test]
    fn lap8_sym_reads_as_lap8() {
        let lap8 = include_str!("../../exp/data/lap8.mtx");
        let full = read_matrix_market(lap8.as_bytes()).unwrap();
        let sym = include_str!("../../exp/data/lap8_sym.mtx");
        assert_eq!(read_matrix_market(sym.as_bytes()).unwrap(), full);
        // Written in the UF layout, entry for entry.
        let entries = |t: &str| -> Vec<String> {
            t.lines().filter(|l| !l.starts_with('%')).map(String::from).collect()
        };
        assert_eq!(entries(sym), entries(&uf_layout(&full)));
    }

    #[test]
    fn a_sorted_symmetric_or_duplicated_file_keeps_its_meaning() {
        // Only diagonal entries: the expansion adds no mirrors, so the
        // read must equal the plain diagonal.
        let diag = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 2.0\n3 3 5.0\n";
        let a = reads_as_oracle(diag, 1);
        assert_eq!((a.get(0, 0), a.get(2, 2), a.nnz()), (2.0, 5.0, 2));
        // A repeated position sums its duplicates.
        let dup = "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1.0\n1 1 2.0\n2 2 1.0\n";
        assert_eq!(reads_as_oracle(dup, 1).get(0, 0), 3.0);
    }

    #[test]
    fn impossible_declared_row_counts_are_typed_errors() {
        // `n_rows + 1` overflows; 2^60 row pointers exceed any allocation.
        for rows in ["18446744073709551615", "1152921504606846976"] {
            let text = format!("%%MatrixMarket matrix coordinate real general\n{rows} 1 0\n");
            for threads in [1usize, 4] {
                let err = read_matrix_market_with(text.as_bytes(), ParContext::new(threads));
                assert!(matches!(err, Err(SparseError::Parse(_))), "{rows} rows: {err:?}");
            }
        }
    }

    const SMALL_GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n\
                                 % c\n3 3 4\n1 1 4.0\n2 1 -1.5e0\n2 2 4\n3 3 1e-3\n";
    const SMALL_SYMMETRIC: &str = "%%MatrixMarket matrix coordinate real symmetric\n\
                                   3 3 4\n1 1 4.0\n2 1 -1.5\n3 2 0.25\n3 3 2\n";

    /// Reads `bytes` at thread counts 1 and 4. Either is `Ok` or a typed
    /// `Err` (a panic fails the test), and the two agree.
    fn read_both_ways(bytes: &[u8]) {
        let seq = read_matrix_market_with(bytes, ParContext::new(1));
        let par = read_matrix_market_with(bytes, ParContext::new(4));
        assert_eq!(seq, par, "{:?}", String::from_utf8_lossy(bytes));
    }

    #[test]
    fn every_truncation_of_a_small_file_is_ok_or_a_typed_error() {
        for text in [SMALL_GENERAL, SMALL_SYMMETRIC] {
            assert!(read_matrix_market(text.as_bytes()).is_ok());
            for end in 0..text.len() {
                read_both_ways(&text.as_bytes()[..end]);
            }
        }
    }

    #[test]
    fn every_single_byte_mutation_of_a_small_file_is_ok_or_a_typed_error() {
        for text in [SMALL_GENERAL, SMALL_SYMMETRIC] {
            let mut bytes = text.as_bytes().to_vec();
            for i in 0..bytes.len() {
                let original = bytes[i];
                for byte in 0..=u8::MAX {
                    bytes[i] = byte;
                    read_both_ways(&bytes);
                }
                bytes[i] = original;
            }
        }
    }
}
