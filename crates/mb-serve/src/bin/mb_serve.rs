//! The `mb_serve` binary: a resident MacroBase server speaking the
//! JSON-lines protocol over stdin/stdout.
//!
//! ```text
//! mb_serve [--threads N] [--workers N] [--queue N] [--session-idle-ms N]
//! ```
//!
//! `--threads` sizes the process-wide work-stealing pool every query shares
//! (one-shot: set before anything touches the pool); `--workers` is the
//! number of concurrently executing queries; `--queue` bounds admission;
//! `--session-idle-ms` expires idle streaming sessions. `--help` prints the
//! usage; any other argument, a flag without an unsigned integer after it,
//! or `--threads`/`--workers` above 1,024, prints the usage to stderr and
//! exits 2 before starting a thread or reading a line. Exits 0 on EOF.

use mb_serve::{serve_loop, ServeConfig, Server};
use std::time::Duration;

const USAGE: &str = "usage: mb_serve [--threads N] [--workers N] [--queue N] [--session-idle-ms N]";

/// The most threads `--threads` or `--workers` may start: each one reserves
/// its own stack (16 MB for a pool worker) before it runs anything.
const MAX_THREADS: usize = 1_024;

/// The pool width (0: the pool's default) and the server's configuration
/// named by `args`; `None` for `--help`; an error for anything else.
fn parse_args(
    mut args: impl Iterator<Item = String>,
) -> Result<Option<(usize, ServeConfig)>, String> {
    let mut threads = 0;
    let mut config = ServeConfig::default();
    let mut idle_ms = config.session_idle.as_millis() as usize;
    while let Some(flag) = args.next() {
        let value = match flag.as_str() {
            "--help" => return Ok(None),
            "--threads" => &mut threads,
            "--workers" => &mut config.workers,
            "--queue" => &mut config.max_queue,
            "--session-idle-ms" => &mut idle_ms,
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        *value = args
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| format!("{flag} needs an unsigned integer argument"))?;
        if matches!(flag.as_str(), "--threads" | "--workers") && *value > MAX_THREADS {
            return Err(format!("{flag} takes at most {MAX_THREADS}"));
        }
    }
    config.session_idle = Duration::from_millis(idle_ms as u64);
    Ok(Some((threads, config)))
}

fn main() {
    let (threads, config) = match parse_args(std::env::args().skip(1)) {
        Ok(Some(parsed)) => parsed,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if threads > 0 {
        // The server owns the pool for the process lifetime; surfacing the
        // one-shot violation beats silently running at the wrong width.
        if let Err(e) = mb_pool::configure_global_threads(threads) {
            eprintln!("warning: --threads {threads} ignored: {e}");
        }
    }
    let server = Server::start(config);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    if let Err(e) = serve_loop(&server, stdin.lock(), stdout.lock()) {
        eprintln!("error: serve loop failed: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<(usize, ServeConfig)>, String> {
        parse_args(args.iter().map(|arg| arg.to_string()))
    }

    #[test]
    fn thread_counts_above_the_ceiling_are_refused_before_any_thread_starts() {
        let (threads, _) = parse(&["--threads", "1024"]).unwrap().unwrap();
        assert_eq!(threads, 1_024);
        let (_, config) = parse(&["--workers", "1024"]).unwrap().unwrap();
        assert_eq!(config.workers, 1_024);
        for flag in ["--threads", "--workers"] {
            for value in ["1025", "1048576"] {
                let refused = parse(&[flag, value]).unwrap_err();
                assert!(refused.contains(flag), "{refused}");
            }
        }
        // The queue is a bound on waiting jobs, not on threads.
        let (_, config) = parse(&["--queue", "1048576"]).unwrap().unwrap();
        assert_eq!(config.max_queue, 1 << 20);
    }
}
