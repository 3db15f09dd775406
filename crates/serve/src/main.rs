//! `tpcp-serve` — serve a directory of saved 2PCP models over TCP.
//!
//! ```text
//! tpcp-serve --models DIR [--addr HOST:PORT] [--max-sessions N] [--cache N]
//! ```
//!
//! The address defaults to `TPCP_SERVE_ADDR`, then `127.0.0.1:7171`.
//! SIGHUP (or the RELOAD opcode) rescans the model directory; the
//! SHUTDOWN opcode stops the daemon cleanly.

use tpcp_serve::{ServeOptions, Server};

fn usage() -> ! {
    eprintln!("usage: tpcp-serve --models DIR [--addr HOST:PORT] [--max-sessions N] [--cache N]");
    std::process::exit(2);
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut models: Option<String> = None;
    let mut addr: Option<String> = None;
    let mut max_sessions: Option<usize> = None;
    let mut cache: Option<usize> = None;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("tpcp-serve: {name} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--models" => models = Some(value("--models")),
            "--addr" => addr = Some(value("--addr")),
            "--max-sessions" => max_sessions = value("--max-sessions").parse().ok(),
            "--cache" => cache = value("--cache").parse().ok(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("tpcp-serve: unknown flag {other:?}");
                usage();
            }
        }
    }
    let Some(models) = models else {
        eprintln!("tpcp-serve: --models is required");
        usage();
    };

    let mut opts = ServeOptions::new(&models);
    if let Some(a) = addr {
        opts.addr = a;
    }
    if let Some(n) = max_sessions {
        opts.max_sessions = n;
    }
    if let Some(n) = cache {
        opts.cache_capacity = n;
    }

    let server = match Server::start(opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("tpcp-serve: failed to start: {e}");
            std::process::exit(1);
        }
    };
    let snap = server.registry().snapshot();
    let mut names: Vec<&str> = snap.keys().map(String::as_str).collect();
    names.sort();
    println!(
        "tpcp-serve: listening on {} — {} model(s): {}",
        server.local_addr(),
        names.len(),
        names.join(", ")
    );
    if let Err(e) = server.serve_forever() {
        eprintln!("tpcp-serve: accept loop failed: {e}");
        std::process::exit(1);
    }
    println!("tpcp-serve: shut down cleanly");
}
