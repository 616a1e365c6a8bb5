//! A suite server on the thread tier, for `restune-bench`'s
//! `isolation.spawn_ms`: job round trips against it are compared with
//! round trips against the process-tier server. A server isolates jobs in
//! child processes whenever its binary installed a worker entry, so this
//! binary deliberately never calls `restune::maybe_run_worker`.
//!
//! Usage: `restune-bench-thread-server SOCKET CACHE_DIR`. Prints `ready`
//! once listening, serves until its stdin closes, then drains and exits.

use std::io::{Read, Write};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [socket, cache] = args.as_slice() else {
        eprintln!("usage: restune-bench-thread-server SOCKET CACHE_DIR");
        return ExitCode::from(2);
    };
    let cfg = restune::ServerConfig {
        cache_dir: Some(PathBuf::from(cache)),
        ..restune::ServerConfig::from_env()
    };
    let server = match restune::Server::start(restune::Endpoint::parse(socket), cfg) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("restune-bench-thread-server: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdout = std::io::stdout();
    if writeln!(stdout, "ready")
        .and_then(|()| stdout.flush())
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    server.drain_and_stop();
    let _ = std::fs::remove_dir_all(cache);
    ExitCode::SUCCESS
}
