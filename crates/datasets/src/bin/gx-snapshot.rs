//! `gx-snapshot` — convert a SNAP/KONECT edge list into an on-disk
//! graph snapshot (`.gxsn` mmap-ready CSR, or `.gxsc` compressed).
//!
//! ```text
//! gx-snapshot <edge-list> <output> [--format gxsn|gxsc] [--block N]
//! ```
//!
//! The edge list is streamed twice (degree count, then CSR fill), so
//! inputs larger than RAM convert as long as the final CSR fits. When
//! the input's ids are already dense (`0..n` in order) the id-map
//! section is skipped — `Graph::open` then serves identity ids for free.
//! On success the tool prints the node/edge counts, the structural
//! fingerprint embedded in the header (the same value
//! `Runner::resume_trusted` checks), and the bytes written.

use gx_datasets::LoadedDataset;
use gx_graph::disk::write_gxsc_with_block;
use gx_graph::{write_gxsn, SnapshotInfo};
use std::process::ExitCode;

const USAGE: &str = "usage: gx-snapshot <edge-list> <output> [--format gxsn|gxsc] [--block N]

  <edge-list>   SNAP/KONECT plain text: `u v` per line, #/% comments
  <output>      snapshot path, written atomically (temp + fsync + rename)
  --format      gxsn (mmap-ready CSR, default) or gxsc (delta-varint compressed)
  --block N     gxsc only: nodes per decode block (default 64)";

struct Args {
    input: String,
    output: String,
    compressed: bool,
    block: u64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional: Vec<&String> = Vec::new();
    let mut compressed = false;
    let mut block = 64u64;
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--format" => match it.next().map(String::as_str) {
                Some("gxsn") => compressed = false,
                Some("gxsc") => compressed = true,
                Some(other) => return Err(format!("unknown format `{other}` (gxsn|gxsc)")),
                None => return Err("--format needs a value".into()),
            },
            "--block" => {
                let v = it.next().ok_or("--block needs a value")?;
                block = v.parse::<u64>().map_err(|_| format!("bad --block value `{v}`"))?;
                if block == 0 {
                    return Err("--block must be >= 1".into());
                }
            }
            "--help" | "-h" => return Err(String::new()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            _ => positional.push(a),
        }
    }
    match positional.as_slice() {
        [input, output] => {
            Ok(Args { input: (*input).clone(), output: (*output).clone(), compressed, block })
        }
        _ => Err("expected exactly two positional arguments".into()),
    }
}

fn run(args: &Args) -> Result<(), String> {
    let ds =
        LoadedDataset::load(&args.input).map_err(|e| format!("reading {}: {e}", args.input))?;
    // Dense inputs need no id-map section: compact id == original id.
    let originals = ds.ids.originals();
    let identity = originals.iter().enumerate().all(|(i, &o)| o == i as u64);
    let ids = if identity { None } else { Some(originals) };
    let info: SnapshotInfo = if args.compressed {
        write_gxsc_with_block(&ds.graph, ids, &args.output, args.block)
    } else {
        write_gxsn(&ds.graph, ids, &args.output)
    }
    .map_err(|e| format!("writing {}: {e}", args.output))?;
    println!(
        "{}: {} nodes={} edges={} fingerprint={:#018x} bytes={} id_map={}",
        args.output,
        info.kind,
        info.num_nodes,
        info.num_edges,
        info.fingerprint,
        info.bytes,
        if identity { "identity" } else { "embedded" },
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("gx-snapshot: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gx-snapshot: {msg}");
            ExitCode::FAILURE
        }
    }
}
