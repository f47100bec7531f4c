//! `edp_top` — run a registered app under telemetry and inspect it.
//!
//! ```sh
//! edp_top --list
//! edp_top microburst
//! edp_top ndp-trim --seeds 4 --duration-ms 10 --json
//! edp_top microburst --trace-out /tmp/microburst.trace --prom
//! ```

use edp_bench::top::{self, TopOptions, TopWorkload};
use edp_evsim::SimDuration;
use edp_packet::PcapFile;
use std::sync::Arc;

const USAGE: &str = "usage: edp_top <app> [options] | edp_top --list
options:
  --seeds N          run seeds 1..=N (default 2)
  --duration-ms M    simulated milliseconds per seed (default 5)
  --threads T        sweep workers (default: EDP_SWEEP_THREADS or cores)
  --trace-capacity C trace-ring records per seed (default 65536)
  --pcap FILE        replay the capture (pcap or pcapng) from the sender
                     host instead of the CBR load, preserving the file's
                     inter-arrival gaps
  --speedup F        compress replay gaps by F (default 1.0)
  --endpoints N      drive N fleet endpoints (closed-loop Zipf
                     request/response with retransmit) instead of CBR
  --pcap-roundtrip FILE
                     parse FILE, re-encode it canonically, and verify the
                     round-trip byte-for-byte (exit 1 on mismatch); no
                     simulation is run
  --json             emit the report as JSON instead of the table
  --prom             emit the registry in Prometheus text format
  --trace-out FILE   write the structured trace to FILE";

fn fail(msg: &str) -> ! {
    eprintln!("edp_top: {msg}\n{USAGE}");
    std::process::exit(2);
}

fn parsed<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
    match v.map(|v| v.parse::<T>()) {
        Some(Ok(x)) => x,
        _ => fail(&format!("{flag} needs a numeric argument")),
    }
}

/// A count of 0 would run nothing or be silently rewritten to 1.
fn positive<T: std::str::FromStr + Default + PartialEq>(flag: &str, v: Option<String>) -> T {
    let n: T = parsed(flag, v);
    if n == T::default() {
        fail(&format!("{flag} must be at least 1"));
    }
    n
}

/// Parse `path`, re-encode it canonically, and verify the codec is a
/// fixpoint: the canonical bytes must re-parse to the same packets and
/// re-encode to the same bytes. Inputs already in canonical form
/// (little-endian nanosecond classic pcap) must additionally survive
/// byte-for-byte. Returns the process exit code.
fn pcap_roundtrip(path: &str) -> i32 {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("edp_top: {path}: {e}");
            return 1;
        }
    };
    let file = match PcapFile::parse(&bytes) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("edp_top: {path}: {e}");
            return 1;
        }
    };
    let canon = file.to_pcap_bytes();
    let reparsed = match PcapFile::parse(&canon) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("edp_top: {path}: canonical re-encoding failed to parse: {e}");
            return 1;
        }
    };
    if reparsed != file {
        eprintln!("edp_top: {path}: packets changed across write -> read");
        return 1;
    }
    if reparsed.to_pcap_bytes() != canon {
        eprintln!("edp_top: {path}: re-encoding is not a fixpoint");
        return 1;
    }
    let canonical_input = bytes.len() >= 4 && bytes[..4] == canon[..4];
    if canonical_input && bytes != canon {
        eprintln!(
            "edp_top: {path}: canonical input did not round-trip byte-for-byte \
             ({} bytes in, {} bytes out)",
            bytes.len(),
            canon.len()
        );
        return 1;
    }
    println!(
        "{path}: {} packets, {} bytes {} round-trip ok",
        file.packets.len(),
        canon.len(),
        if canonical_input {
            "byte-identical"
        } else {
            "normalized"
        }
    );
    0
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut app: Option<String> = None;
    let mut opts = TopOptions::default();
    let mut json = false;
    let mut prom = false;
    let mut trace_out: Option<String> = None;
    let mut pcap: Option<String> = None;
    let mut speedup = 1.0f64;
    let mut endpoints: Option<u32> = None;
    let mut roundtrip: Option<String> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" => {
                for name in top::app_names() {
                    println!("{name}");
                }
                return;
            }
            "--seeds" => {
                let n: u64 = positive("--seeds", args.next());
                opts.seeds = (1..=n).collect();
            }
            "--duration-ms" => {
                let ms: u64 = parsed("--duration-ms", args.next());
                if ms > SimDuration::MAX.as_nanos() / 1_000_000 {
                    fail("--duration-ms does not fit in u64 nanoseconds");
                }
                opts.duration = SimDuration::from_millis(ms);
            }
            "--threads" => opts.threads = positive("--threads", args.next()),
            "--trace-capacity" => opts.trace_capacity = positive("--trace-capacity", args.next()),
            "--pcap" => {
                pcap = Some(args.next().unwrap_or_else(|| fail("--pcap needs a path")));
            }
            "--speedup" => {
                speedup = parsed("--speedup", args.next());
                if !(speedup.is_finite() && speedup > 0.0) {
                    fail("--speedup must be finite and positive");
                }
            }
            "--endpoints" => endpoints = Some(positive("--endpoints", args.next())),
            "--pcap-roundtrip" => {
                roundtrip = Some(
                    args.next()
                        .unwrap_or_else(|| fail("--pcap-roundtrip needs a path")),
                );
            }
            "--json" => json = true,
            "--prom" => prom = true,
            "--trace-out" => {
                trace_out = Some(
                    args.next()
                        .unwrap_or_else(|| fail("--trace-out needs a path")),
                )
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            _ if app.is_none() && !a.starts_with('-') => app = Some(a),
            _ => fail(&format!("unrecognized argument `{a}`")),
        }
    }
    if let Some(path) = roundtrip {
        std::process::exit(pcap_roundtrip(&path));
    }
    match (&pcap, endpoints) {
        (Some(_), Some(_)) => fail("--pcap and --endpoints are mutually exclusive"),
        (Some(path), None) => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            let file = PcapFile::parse(&bytes).unwrap_or_else(|e| fail(&format!("{path}: {e}")));
            opts.workload = TopWorkload::Pcap {
                packets: Arc::new(file.packets),
                speedup,
            };
        }
        (None, Some(count)) => opts.workload = TopWorkload::Endpoints { count },
        (None, None) => {}
    }
    let Some(app) = app else { fail("no app named") };
    let report = match top::run(&app, &opts) {
        Ok(r) => r,
        Err(e) => fail(&e),
    };
    if let Some(path) = trace_out {
        if let Err(e) = std::fs::write(&path, &report.trace) {
            fail(&format!("writing {path}: {e}"));
        }
    }
    if json {
        println!("{}", top::to_json_report(&report));
    } else if prom {
        print!("{}", edp_telemetry::to_prometheus_text(&report.registry));
    } else {
        print!("{}", top::render(&report));
    }
}
