//! `restuned`: the long-running multi-tenant suite server. Harnesses
//! connect with `--connect ENDPOINT` and submit simulation jobs over the
//! RSTF framing; the server schedules them fairly across tenants onto a
//! supervised worker pool, shares one cross-tenant result cache (same job
//! fingerprint is never simulated twice), and contains per-client faults —
//! a torn frame, a slow-loris writer, or a mid-stream disconnect kills that
//! connection only. SIGTERM/SIGINT drain gracefully: queued and in-flight
//! jobs finish, completed results persist, and the process exits 0.

use std::time::Duration;

/// Usage text for `--help` and argument errors.
const USAGE: &str = "usage: restuned [--socket PATH | --tcp HOST:PORT] [--queue N] [--clients N]
                [--deadline SECS] [--workers N] [--faults SEED]
                [--mesh-peer ENDPOINT]...
  --socket PATH    listen on a unix socket at PATH
                   (default target/restuned.sock)
  --tcp HOST:PORT  listen on a TCP address instead of a unix socket
  --queue N        admission queue bound; requests beyond it are rejected
                   with a busy/retry-after frame (default 256)
  --clients N      simultaneous client bound; connections beyond it are
                   refused (default 64)
  --deadline SECS  watchdog deadline for requests that carry none of their
                   own (default 120)
  --workers N      worker threads (RESTUNE_WORKERS, default: available
                   parallelism)
  --faults SEED    arm deterministic network-fault injection on a seeded
                   subset of accepted connections (chaos testing; off by
                   default)
  --mesh-peer E    advertise endpoint E as a mesh peer in the hello frame
                   sent to every client (repeatable; informational — the
                   client's own --connect list decides its routing)
  --help, -h       print this message

--workers overrides RESTUNE_WORKERS. SIGTERM or SIGINT drains: in-flight
jobs finish, results persist to the shared cache, and the exit code is 0.";

/// Exit code for malformed command-line arguments.
const EXIT_USAGE: i32 = 2;

fn fail(message: &str) -> ! {
    eprintln!("error: {message}\n{USAGE}");
    std::process::exit(EXIT_USAGE);
}

fn main() {
    restune::maybe_run_worker();
    restune::install_signal_handlers();
    // The server's workers execute every job in an isolated child process
    // when a worker entry exists (it does: `maybe_run_worker` above), so a
    // hard-crashing job cannot take the server down. Respect an explicit
    // operator override, default to process isolation otherwise.
    if std::env::var_os("RESTUNE_ISOLATION").is_none() {
        std::env::set_var("RESTUNE_ISOLATION", "auto");
    }

    let mut cfg = restune::ServerConfig::from_env();
    let mut endpoint = restune::Endpoint::parse("target/restuned.sock");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| -> String {
            match args.next() {
                Some(v) => v,
                None => fail(&format!("{flag} requires a value")),
            }
        };
        match a.as_str() {
            "--socket" => endpoint = restune::Endpoint::parse(&value("--socket")),
            "--tcp" => endpoint = restune::Endpoint::parse(&format!("tcp:{}", value("--tcp"))),
            "--queue" => match value("--queue").parse() {
                Ok(n) if n > 0 => cfg.queue_limit = n,
                _ => fail("--queue requires a positive integer"),
            },
            "--clients" => match value("--clients").parse() {
                Ok(n) if n > 0 => cfg.max_clients = n,
                _ => fail("--clients requires a positive integer"),
            },
            "--deadline" => match value("--deadline").parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => {
                    cfg.default_deadline = Some(Duration::from_secs_f64(s));
                }
                _ => fail("--deadline requires a positive number of seconds"),
            },
            "--workers" => match value("--workers").parse() {
                Ok(n) if n > 0 => cfg.workers = n,
                _ => fail("--workers requires a positive integer"),
            },
            "--faults" => match value("--faults").parse() {
                Ok(seed) => cfg.net_fault_seed = Some(seed),
                Err(_) => fail("--faults requires an integer seed"),
            },
            "--mesh-peer" => {
                let peer = value("--mesh-peer");
                if peer.trim().is_empty() {
                    fail("--mesh-peer requires a non-empty endpoint");
                }
                cfg.mesh_peers.push(peer);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument: {other}")),
        }
    }

    let server = match restune::Server::start(endpoint, cfg.clone()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start restuned: {e}");
            std::process::exit(1);
        }
    };
    eprintln!(
        "restuned: listening on {} ({} workers, queue {}, clients {}{})",
        server.endpoint(),
        cfg.workers,
        cfg.queue_limit,
        cfg.max_clients,
        match cfg.net_fault_seed {
            Some(seed) => format!(", injecting network faults from seed {seed}"),
            None => String::new(),
        }
    );
    if !cfg.mesh_peers.is_empty() {
        eprintln!(
            "restuned: advertising {} mesh peer(s): {}",
            cfg.mesh_peers.len(),
            cfg.mesh_peers.join(", ")
        );
    }

    while !restune::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("restuned: draining (queued and in-flight jobs will finish)");
    let stats = server.drain_and_stop();
    eprintln!(
        "restuned: drained; connections={} jobs_run={} failures={} cache_hits={} \
         cache_misses={} busy_rejections={} protocol_errors={} slow_loris_kills={} cancelled={} \
         probes={}",
        stats.connections,
        stats.jobs_run,
        stats.job_failures,
        stats.cache_hits,
        stats.cache_misses,
        stats.busy_rejections,
        stats.protocol_errors,
        stats.slow_loris_kills,
        stats.cancelled,
        stats.probes,
    );
    // The signal handler re-arms SIG_DFL after the first signal; exiting
    // explicitly with 0 makes "SIGTERM drains cleanly" observable to ci.
    std::process::exit(0);
}
