//! SNAP-style edge-list I/O.
//!
//! The paper's datasets ship as whitespace-separated edge lists with `#`
//! comment lines (SNAP format). [`load_edge_list`] reads that format and
//! applies the paper's preprocessing through [`GraphBuilder::build`]
//! (symmetrize, drop loops, drop isolated vertices, densify ids), so a real
//! SNAP download can be swapped in for the synthetic stand-ins directly.
//!
//! # Format
//!
//! The input is split into lines at `\n`. Whitespace is the ASCII part of
//! Unicode's white space: space, `\t`, `\n`, `\x0b`, `\x0c` and `\r`, so a
//! CRLF file reads like an LF file. A line that holds only whitespace, or
//! whose first other byte is `#` or `%`, is skipped. Every other line is a
//! data line and must start with two unsigned decimal vertex ids (an
//! optional leading `+`, at most `u32::MAX`) separated by whitespace;
//! further columns, e.g. KONECT timestamps, are ignored. A malformed data
//! line is a [`GraphError::Parse`] carrying its 1-based line number.
//!
//! # Bytes, not text
//!
//! The parser works on raw bytes and never decodes UTF-8:
//!
//! - a byte outside ASCII anywhere on a data line, extra columns included,
//!   is a [`GraphError::Parse`] with that line's number;
//! - inside a comment line every byte is accepted.
//!
//! An earlier reader decoded each line into a `String`, so invalid UTF-8
//! anywhere, even inside a comment, was a [`GraphError::Io`], and a line of
//! only non-ASCII Unicode white space (such as U+00A0) was skipped as
//! blank. Both differences are intended. On ASCII input the two readers
//! agree on every graph and on every error line; the tests of this module
//! keep the old reader as a reference and check that.
//!
//! # Parallel parse
//!
//! An input of `b` bytes is cut at line boundaries into
//! `min(available_parallelism, b / 1 MiB)` chunks (at least one). The raw
//! edge list is allocated once, with a slot per line, and each chunk is
//! parsed on its own scoped thread into the slots after the lines of the
//! chunks before it. Closing the gaps that comment and blank lines leave
//! concatenates the chunks in input order, so the raw edge order and every
//! error's line number are those of a serial parse.

use crate::builder::GraphBuilder;
use crate::csr::{DataGraph, VertexId};
use crate::error::GraphError;
use crate::par::{map_parallel, split_lengths};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Input bytes per parse thread: smaller inputs parse on one thread.
const CHUNK_BYTES: usize = 1 << 20;

type Edge = (VertexId, VertexId);

/// Parses an edge list from any reader (see the module docs for the
/// format). The whole input is read into memory first.
pub fn read_edge_list<R: Read>(mut reader: R) -> Result<DataGraph, GraphError> {
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    parse_edge_list(bytes)
}

/// Loads an edge-list file (see [`read_edge_list`]).
pub fn load_edge_list<P: AsRef<Path>>(path: P) -> Result<DataGraph, GraphError> {
    parse_edge_list(std::fs::read(path)?)
}

/// Parses `bytes` on as many threads as its size warrants and builds the
/// graph.
fn parse_edge_list(bytes: Vec<u8>) -> Result<DataGraph, GraphError> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunks = threads.min(bytes.len() / CHUNK_BYTES).max(1);
    let bounds = chunk_bounds(&bytes, chunks);
    parse_split(bytes, &bounds)
}

/// Parses `bytes` as the chunks `bounds[i]..bounds[i + 1]` (each starting
/// at a line start) and builds the graph.
///
/// A chunk holds at most one edge per line, so after counting lines the
/// edge list is allocated once and each chunk writes its edges straight
/// into the slots its preceding lines reserve; joining the chunks in order
/// then only closes the gaps comment and blank lines left. The input
/// buffer is freed before the graph is built.
fn parse_split(bytes: Vec<u8>, bounds: &[usize]) -> Result<DataGraph, GraphError> {
    let chunks: Vec<&[u8]> = bounds.windows(2).map(|w| &bytes[w[0]..w[1]]).collect();
    let lines = map_parallel(chunks.clone(), line_count);
    let mut edges = vec![(0, 0); lines.iter().sum()];
    let slots = split_lengths(&mut edges, lines.iter().copied());
    let written = map_parallel(chunks.into_iter().zip(slots).collect(), |(chunk, out)| {
        parse_lines(chunk, out)
    });
    drop(bytes);
    // `start` is both the chunk's first slot and the lines before it.
    let (mut len, mut start) = (0, 0);
    for (result, count) in written.into_iter().zip(lines) {
        let n =
            result.map_err(|(line, message)| GraphError::Parse { line: start + line, message })?;
        if start != len {
            edges.copy_within(start..start + n, len);
        }
        len += n;
        start += count;
    }
    edges.truncate(len);
    GraphBuilder::from_raw_edges(edges).build()
}

/// Lines in `chunk`: its `\n`s, plus one for an unterminated last line.
/// Counting into a byte per block of 255 lets the compiler vectorize it.
fn line_count(chunk: &[u8]) -> usize {
    let newlines: usize = chunk
        .chunks(255)
        .map(|block| usize::from(block.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n'))))
        .sum();
    newlines + usize::from(!chunk.is_empty() && !chunk.ends_with(b"\n"))
}

/// `chunks + 1` cut points splitting `bytes` into `chunks` runs of whole
/// lines of about equal size (a run may be empty).
fn chunk_bounds(bytes: &[u8], chunks: usize) -> Vec<usize> {
    let step = bytes.len() / chunks;
    (0..chunks).map(|i| line_start(bytes, i * step)).chain([bytes.len()]).collect()
}

/// The first line start at or after `at`: `at` itself if a line begins
/// there, else just past the next `\n`, else the end of `bytes`.
fn line_start(bytes: &[u8], at: usize) -> usize {
    if at == 0 || at >= bytes.len() {
        return at.min(bytes.len());
    }
    match bytes[at - 1..].iter().position(|&b| b == b'\n') {
        Some(i) => at + i,
        None => bytes.len(),
    }
}

/// ASCII white space as `char::is_whitespace` defines it.
#[inline]
fn is_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | 0x0b | 0x0c | b'\r')
}

/// Parses whole lines of `text`, writing its edges to the front of `out`
/// (at least one slot per line). Returns the number of edges, or the first
/// malformed line's number (within `text`) and message.
fn parse_lines(text: &[u8], out: &mut [Edge]) -> Result<usize, (usize, String)> {
    let mut edges = 0;
    let mut line = 0;
    let mut pos = 0;
    while pos < text.len() {
        line += 1;
        let start = pos;
        while text.get(pos).is_some_and(|&b| b != b'\n' && is_space(b)) {
            pos += 1;
        }
        match text.get(pos) {
            None => break,
            Some(b'\n') => {
                pos += 1;
                continue;
            }
            Some(b'#' | b'%') => {
                pos = next_line(text, pos);
                continue;
            }
            Some(_) => {}
        }
        out[edges] = match parse_edge(text, pos) {
            Some((edge, next)) => {
                pos = next;
                edge
            }
            None => {
                pos = next_line(text, start);
                let end = if text[..pos].ends_with(b"\n") { pos - 1 } else { pos };
                parse_line(&text[start..end]).map_err(|message| (line, message))?
            }
        };
        edges += 1;
    }
    Ok(edges)
}

/// The position just past the `\n` ending the line that holds `pos`.
#[inline]
fn next_line(text: &[u8], pos: usize) -> usize {
    text[pos..].iter().position(|&b| b == b'\n').map_or(text.len(), |i| pos + i + 1)
}

/// Fast path for a well-formed data line whose first id starts at `pos`:
/// the edge and the start of the next line. `None` sends the line to
/// [`parse_line`], which decides it.
#[inline]
fn parse_edge(text: &[u8], pos: usize) -> Option<(Edge, usize)> {
    let (u, mut pos) = parse_id(text, pos)?;
    while text.get(pos).is_some_and(|&b| b != b'\n' && is_space(b)) {
        pos += 1;
    }
    let (v, pos) = parse_id(text, pos)?;
    // Extra columns: anything ASCII up to the end of the line.
    match text[pos..].iter().position(|&b| b == b'\n' || !b.is_ascii()) {
        None => Some(((u, v), text.len())),
        Some(i) if text[pos + i] == b'\n' => Some(((u, v), pos + i + 1)),
        Some(_) => None,
    }
}

/// An id token at `pos`: optional `+`, decimal digits, no overflow, ended
/// by white space or the end of the input. Returns the id and the position
/// after it.
#[inline]
fn parse_id(text: &[u8], mut pos: usize) -> Option<(VertexId, usize)> {
    if text.get(pos) == Some(&b'+') {
        pos += 1;
    }
    let first = pos;
    let mut value = 0u64;
    while let Some(&b) = text.get(pos) {
        let digit = b.wrapping_sub(b'0');
        if digit > 9 {
            break;
        }
        value = value * 10 + u64::from(digit);
        if value > u64::from(VertexId::MAX) {
            return None;
        }
        pos += 1;
    }
    let ended = text.get(pos).is_none_or(|&b| is_space(b));
    (pos > first && ended).then_some((value as VertexId, pos))
}

/// Slow path: one data line (without its `\n`) read by the rules of the
/// module docs, with the error message naming what is wrong.
fn parse_line(line: &[u8]) -> Result<Edge, String> {
    if !line.is_ascii() {
        return Err("non-ASCII byte on a data line".into());
    }
    let line = std::str::from_utf8(line).expect("ASCII is UTF-8");
    let mut it = line.split_whitespace();
    Ok((parse_vertex(it.next())?, parse_vertex(it.next())?))
}

fn parse_vertex(tok: Option<&str>) -> Result<VertexId, String> {
    let tok = tok.ok_or("expected two vertex ids")?;
    tok.parse::<VertexId>().map_err(|e| format!("bad vertex id {tok:?}: {e}"))
}

/// Writes `g` as a SNAP-style edge list, one undirected edge per line
/// (`u v` with `u < v`), preceded by a size comment.
pub fn write_edge_list<W: Write>(g: &DataGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(w, "# undirected graph: {} vertices, {} edges", g.num_vertices(), g.num_edges())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u}\t{v}")?;
    }
    w.flush()?;
    Ok(())
}

/// Saves `g` to a file (see [`write_edge_list`]).
pub fn save_edge_list<P: AsRef<Path>>(g: &DataGraph, path: P) -> Result<(), GraphError> {
    write_edge_list(g, std::fs::File::create(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The line-by-line `String` reader this module's parser replaced, kept
    /// as the reference the byte parser must match on ASCII input.
    fn reference_read(text: &[u8]) -> Result<DataGraph, GraphError> {
        use std::io::BufRead;
        let mut builder = GraphBuilder::new();
        let mut buf = String::new();
        let mut r = std::io::BufReader::new(text);
        let mut line_no = 0usize;
        loop {
            buf.clear();
            if r.read_line(&mut buf)? == 0 {
                break;
            }
            line_no += 1;
            let line = buf.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
                continue;
            }
            let mut it = line.split_whitespace();
            let bad = |message: String| GraphError::Parse { line: line_no, message };
            let u = parse_vertex(it.next()).map_err(bad)?;
            let v = parse_vertex(it.next()).map_err(bad)?;
            builder.add_edge(u, v);
        }
        builder.build()
    }

    /// `Ok(content hash)` or `Err(parse line)`; any other error panics.
    fn outcome(r: Result<DataGraph, GraphError>) -> Result<u64, (usize, String)> {
        match r {
            Ok(g) => Ok(g.content_hash()),
            Err(GraphError::Parse { line, message }) => Err((line, message)),
            Err(other) => panic!("unexpected error {other}"),
        }
    }

    /// Checks the byte parser against the reference on `text`, serially
    /// and with one forced chunk cut at every byte offset.
    fn assert_matches_reference(text: &[u8]) {
        let expected = outcome(reference_read(text));
        assert_eq!(outcome(read_edge_list(text)), expected, "input {text:?}");
        for at in 0..=text.len() {
            let bounds = [0, line_start(text, at), text.len()];
            assert_eq!(outcome(parse_split(text.to_vec(), &bounds)), expected, "cut {at} {text:?}");
        }
    }

    #[test]
    fn parses_snap_format_with_comments_and_extra_columns() {
        let text = "# Directed graph\n% konect style\n\n1 2\n2\t3 1234567\n3 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3); // triangle after symmetrization
    }

    #[test]
    fn rejects_malformed_lines_with_line_numbers() {
        let err = read_edge_list("1 2\nfoo bar\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
        let err = read_edge_list("1\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn edge_cases_match_the_reference_reader() {
        for text in [
            "",
            "\n",
            "1 2",
            "1 2\r\n2 3\r\n3 1\r\n",
            "1\t2\x0b\n\x0c2 3\r",
            "  # comment\n\t% comment\n1 2\n",
            "+1 +2\n",
            "++1 2\n",
            "1+ 2\n",
            "+ 2\n",
            "-1 2\n",
            "1 4294967295\n",
            "1 4294967296\n",
            "99999999999999999999 1\n",
            "0000000000000000000001 2\n",
            "1 2 3 x y\n",
            "1 2x\n",
            "1\n2 3\n",
            "1 \n",
            "1 2\r3 4\n",
            "1 2\n\n   \n3",
            "1 2\n3 4\n5",
            "1 1\n",
            "#\n%\n",
            "1 2 \u{1}\n",
            "1\x002\n",
        ] {
            assert_matches_reference(text.as_bytes());
        }
    }

    #[test]
    fn non_ascii_bytes_are_parse_errors_on_data_lines_only() {
        let text = b"# caf\xc3\xa9 \xff\xfe\n1 2\n% \x80\n2 3 \xe2\x80\x94\n";
        assert!(matches!(read_edge_list(&text[..]), Err(GraphError::Parse { line: 4, .. })));
        let g = read_edge_list(&b"# \xff not utf-8\n1 2\n% \xc3\xa9\n2 3\n"[..]).unwrap();
        assert_eq!(g.num_edges(), 2);
        // Non-ASCII white space is not white space here.
        assert!(matches!(
            read_edge_list("1 2\n\u{a0}\n".as_bytes()),
            Err(GraphError::Parse { line: 2, .. })
        ));
    }

    #[test]
    fn chunk_bounds_start_lines_and_cover_the_input() {
        let text = b"1 2\n33 44\n\n5 6";
        for chunks in 1..=8 {
            let bounds = chunk_bounds(text, chunks);
            assert_eq!(bounds.len(), chunks + 1);
            assert_eq!((bounds[0], bounds[chunks]), (0, text.len()));
            assert!(bounds.windows(2).all(|w| w[0] <= w[1]));
            assert!(bounds.iter().all(|&b| b == 0 || b == text.len() || text[b - 1] == b'\n'));
        }
        assert_eq!(chunk_bounds(b"", 3), vec![0, 0, 0, 0]);
    }

    /// ASCII pieces the differential inputs are made of: digits, ids near
    /// the `u32` limit, signs, every white-space byte, comment markers and
    /// other printable bytes.
    fn fragment(kind: u8, x: u32) -> String {
        match kind % 16 {
            0..=2 => (x % 50).to_string(),
            3 => x.to_string(),
            4 => ["4294967295", "4294967296", "99999999999", "007"][x as usize % 4].into(),
            5 => "+".into(),
            6 => "-".into(),
            7 | 8 => " ".into(),
            9 => ["\t", "\x0b", "\x0c", "\r"][x as usize % 4].into(),
            10 | 11 => "\n".into(),
            12 => "\r\n".into(),
            13 => ["#", "%"][x as usize % 2].into(),
            _ => char::from(b' ' + (x % 95) as u8).to_string(),
        }
    }

    /// One line of a mostly well-formed edge list.
    fn edge_line(kind: u8, u: u32, v: u32) -> String {
        let (u, v) = (u % 40, v % 40);
        match kind % 8 {
            0 | 1 => format!("{u} {v}"),
            2 => format!("\t{u}\x0b\x0c{v}\r"),
            3 => format!("+{u} {v} {}", u * v),
            4 => format!("  # {u} {v}"),
            5 => format!("% {u}"),
            6 => " \r".into(),
            _ => format!("{u}{}{v}", fragment(v as u8, u)),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn ascii_fragments_match_the_reference_reader(
            parts in collection::vec((any::<u8>(), any::<u32>()), 0..24),
        ) {
            let text: String = parts.iter().map(|&(k, x)| fragment(k, x)).collect();
            assert_matches_reference(text.as_bytes());
        }

        #[test]
        fn ascii_edge_lists_match_the_reference_reader(
            lines in collection::vec((any::<u8>(), any::<u32>(), any::<u32>()), 0..12),
            trailing_newline in any::<bool>(),
        ) {
            let mut text =
                lines.iter().map(|&(k, u, v)| edge_line(k, u, v)).collect::<Vec<_>>().join("\n");
            if trailing_newline {
                text.push('\n');
            }
            assert_matches_reference(text.as_bytes());
        }

        #[test]
        fn arbitrary_bytes_give_typed_errors(bytes in collection::vec(any::<u8>(), 0..64)) {
            let result = read_edge_list(bytes.as_slice());
            prop_assert!(matches!(
                result,
                Ok(_) | Err(GraphError::Parse { .. } | GraphError::Io(_))
            ));
            if let Err(GraphError::Parse { line, .. }) = result {
                let lines = bytes.iter().filter(|&&b| b == b'\n').count() + 1;
                prop_assert!((1..=lines).contains(&line));
            }
        }

        #[test]
        fn non_ascii_is_an_error_on_data_lines_and_fine_in_comments(
            good in 0usize..5,
            byte in 128u8..255,
            column in 0usize..3,
        ) {
            let mut text: Vec<u8> = (0..good).flat_map(|i| format!("{i} {}\n", i + 1).into_bytes()).collect();
            text.extend_from_slice(b"# comment ");
            text.push(byte);
            text.extend_from_slice(b"\n");
            let mut bad = b"7 8 9".to_vec();
            bad.insert([0, 2, 5][column], byte);
            text.extend_from_slice(&bad);
            text.extend_from_slice(b"\n1 2\n");
            prop_assert!(matches!(
                read_edge_list(text.as_slice()),
                Err(GraphError::Parse { line, .. }) if line == good + 2
            ));
            // Without the bad data line the comment's byte is accepted.
            let cut = text.len() - bad.len() - 5;
            prop_assert!(read_edge_list(&text[..cut]).is_ok());
        }
    }

    #[test]
    fn roundtrip_preserves_structure() {
        let g = crate::generators::erdos_renyi_gnm(60, 150, 4).unwrap();
        let mut bytes = Vec::new();
        write_edge_list(&g, &mut bytes).unwrap();
        let g2 = read_edge_list(bytes.as_slice()).unwrap();
        // The roundtrip may drop isolated vertices; edges must survive.
        assert_eq!(g2.num_edges(), g.num_edges());
        assert!(g2.is_symmetric());
    }

    #[test]
    fn multi_chunk_parse_equals_serial_parse() {
        let g = crate::generators::chung_lu(3000, 8.0, 2.3, 11).unwrap();
        let mut bytes = Vec::new();
        write_edge_list(&g, &mut bytes).unwrap();
        let serial = parse_split(bytes.clone(), &[0, bytes.len()]).unwrap();
        for chunks in [2, 3, 7] {
            let bounds = chunk_bounds(&bytes, chunks);
            assert_eq!(
                parse_split(bytes.clone(), &bounds).unwrap().content_hash(),
                serial.content_hash()
            );
        }
        // A bad line late in the input keeps its global line number.
        bytes.extend_from_slice(b"1 x\n");
        let lines = bytes.iter().filter(|&&b| b == b'\n').count();
        let err = parse_split(bytes.clone(), &chunk_bounds(&bytes, 4)).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line, .. } if line == lines));
    }

    /// The two 20k-vertex canonical graphs of the benchmark (content hashes
    /// as in `perfbench/oracle.tsv`) and the graphs their edge lists load
    /// to, pinned from the line-by-line reader and the sort-based builder.
    #[test]
    fn canonical_benchmark_graphs_keep_their_hashes() {
        for (gamma, seed, canonical, loaded) in [
            (2.5, 20_140_622, 0x8c2b_8be3_08b8_52fb_u64, 0xdea3_42f7_f0e6_1dbd_u64),
            (2.2, 7, 0xe10b_30e0_2aab_5219, 0xc9dc_ee5c_9ee5_d409),
        ] {
            let g = crate::generators::chung_lu(20_000, 8.0, gamma, seed).unwrap();
            assert_eq!(g.content_hash(), canonical);
            let mut bytes = Vec::new();
            write_edge_list(&g, &mut bytes).unwrap();
            let l = read_edge_list(bytes.as_slice()).unwrap();
            assert_eq!(l.content_hash(), loaded);
            assert_eq!(outcome(reference_read(&bytes)), Ok(loaded));
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("psgl_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.txt");
        let g = crate::generators::erdos_renyi_gnm(30, 60, 2).unwrap();
        save_edge_list(&g, &path).unwrap();
        let g2 = load_edge_list(&path).unwrap();
        assert_eq!(g2.num_edges(), g.num_edges());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(load_edge_list("/definitely/not/here.txt"), Err(GraphError::Io(_))));
    }
}
