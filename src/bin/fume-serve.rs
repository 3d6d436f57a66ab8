//! `fume-serve` — a persistent FUME explain server.
//!
//! Loads a CSV once, trains the DaRE forest once, keeps the unlearning
//! scratch pool warm and the eval cache hot, and serves explain
//! requests as newline-delimited JSON — over stdin/stdout, and
//! optionally a Unix-domain socket at the same time.
//!
//! ```text
//! fume-serve --data loans.csv --label approved --positive yes \
//!     --sensitive sex --privileged male --workers 2
//! ```
//!
//! Then, per line on stdin (see `docs/serving.md` for the protocol):
//!
//! ```text
//! {"op":"explain","id":"r1"}
//! {"op":"stats","id":"r2"}
//! {"op":"shutdown","id":"r3"}
//! ```

use std::io::BufReader;
use std::process::exit;

use fume::cli::{self, CliError, Flags, RunArgs};
use fume::serve::transport::unix::serve_unix;
use fume::serve::{serve_lines, Engine, EngineHandle, EngineOptions};
use fume::tabular::workers;

struct ServeArgs {
    workers: usize,
    queue_depth: usize,
    jobs_within: usize,
    cache_capacity: usize,
    socket: Option<String>,
    acceptors: usize,
    checkpoint_root: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "{}",
        cli::usage(
            "fume-serve",
            "serving options:\n  \
             --workers N           concurrent explain jobs (default 2)\n  \
             --queue-depth N       queued jobs before `busy` (default 16)\n  \
             --jobs-within N       eval threads inside one job (default 1)\n  \
             --cache-capacity N    eval-cache entries, 0 disables (default 4096)\n  \
             --socket PATH         also serve a Unix-domain socket at PATH\n  \
             --acceptors N         concurrent socket connections (default 2)\n  \
             --checkpoint-root DIR crash-resumable per-job checkpoints under DIR"
        )
    );
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("fume-serve: {msg}");
    exit(1)
}

fn parse_args() -> Result<(RunArgs, ServeArgs), CliError> {
    let mut serve = ServeArgs {
        workers: 2,
        queue_depth: 16,
        jobs_within: 1,
        cache_capacity: 4096,
        socket: None,
        acceptors: 2,
        checkpoint_root: None,
    };
    let run = RunArgs::parse(&mut Flags::from_env(), |flag, flags| {
        match flag {
            "--workers" => serve.workers = flags.parsed()?,
            "--queue-depth" => serve.queue_depth = flags.parsed()?,
            "--jobs-within" => serve.jobs_within = flags.parsed()?,
            "--cache-capacity" => serve.cache_capacity = flags.parsed()?,
            "--socket" => serve.socket = Some(flags.value()?),
            "--acceptors" => serve.acceptors = flags.parsed()?,
            "--checkpoint-root" => serve.checkpoint_root = Some(flags.value()?),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    Ok((run, serve))
}

/// Serves stdin/stdout until EOF or a `shutdown` request, then starts
/// the engine drain (which also stops any socket acceptors).
fn stdio_loop(handle: EngineHandle<'_, '_>) {
    serve_lines(handle, BufReader::new(std::io::stdin()), std::io::stdout());
    handle.shutdown();
}

fn run(args: &RunArgs, serve: &ServeArgs) -> Result<(), CliError> {
    let trace = args.start_trace();
    let (train, test, group) = args.load()?;
    eprintln!("fume-serve: {}", args.loaded_banner(&train, &test));
    if let Some(trace) = &trace {
        trace.stamp(args, "serve", &train, &test, group);
    }
    let opts = EngineOptions {
        workers: serve.workers.max(1),
        queue_depth: serve.queue_depth.max(1),
        job_jobs: serve.jobs_within.max(1),
        cache_capacity: serve.cache_capacity,
        checkpoint_root: serve.checkpoint_root.as_ref().map(Into::into),
    };
    let engine = Engine::new(args.config(), train, test, group, opts)?;
    eprintln!(
        "fume-serve: engine ready ({} workers, queue depth {}, cache capacity {}); \
         reading NDJSON requests from stdin{}",
        serve.workers.max(1),
        serve.queue_depth.max(1),
        serve.cache_capacity,
        serve.socket.as_deref().map(|s| format!(" and socket {s}")).unwrap_or_default()
    );
    engine.serve(|handle| match &serve.socket {
        Some(path) => {
            let path = std::path::PathBuf::from(path);
            workers::scoped_workers(
                1,
                |_| {
                    if let Err(e) = serve_unix(handle, &path, serve.acceptors.max(1)) {
                        eprintln!("fume-serve: socket error: {e}");
                        handle.shutdown();
                    }
                },
                || stdio_loop(handle),
            )
        }
        None => stdio_loop(handle),
    });
    // With lock-order tracking active (debug builds or FUME_DEEPCHECK=1)
    // any inversion recorded during the session is a correctness bug:
    // report every cycle and refuse to exit cleanly. With tracking off
    // the graph is empty and this is free.
    let cycles = fume::obs::sync::cycle_reports();
    if !cycles.is_empty() {
        for cycle in &cycles {
            eprintln!("fume-serve: {cycle}");
        }
        return Err(CliError::Failed(format!(
            "{} lock-order cycle(s) detected during the session",
            cycles.len()
        )));
    }
    let stats = engine.stats();
    eprintln!(
        "fume-serve: drained; {} jobs ({} failed, {} busy rejections), cache {} hits / {} misses / {} evictions",
        stats.jobs,
        stats.jobs_failed,
        stats.busy_rejections,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.evictions
    );
    match &trace {
        Some(trace) => trace.finish("fume-serve"),
        None => Ok(()),
    }
}

fn main() {
    let result = parse_args().and_then(|(args, serve)| run(&args, &serve));
    match result {
        Ok(()) => {}
        Err(CliError::Usage) => usage(),
        Err(CliError::Failed(msg)) => fail(msg),
    }
}
