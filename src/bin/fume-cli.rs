//! `fume-cli` — run FUME on your own CSV data from the command line.
//!
//! ```text
//! fume-cli explain --data loans.csv --label approved --positive yes \
//!     --sensitive sex --privileged male --support 0.05:0.15 --top-k 5
//! fume-cli slices  --data loans.csv --label approved --positive yes \
//!     --sensitive sex --privileged male
//! fume-cli baseline --data loans.csv --label approved --positive yes \
//!     --sensitive sex --privileged male
//! ```

use std::process::exit;

use fume::cli::{self, CliError, Flags, RunArgs};
use fume::core::{drop_unpriv_unfavor, find_slices, ExplainRequest, Fume};
use fume::forest::DareForest;
use fume::tabular::Classifier;

struct Args {
    command: String,
    run: RunArgs,
    progress: bool,
    checkpoint_dir: Option<String>,
    resume: bool,
    json: bool,
}

fn usage() -> ! {
    eprintln!(
        "{}",
        cli::usage(
            "fume-cli <explain|slices|baseline>",
            "  --progress            live search status line on stderr (level, evals/s, ETA)\n  \
             --checkpoint-dir DIR  checkpoint the explain run's search state\n  \
             --resume              continue a crashed run from --checkpoint-dir\n  \
             --json                print the explain report as canonical JSON (schema 1)"
        )
    );
    exit(2)
}

fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("fume-cli: {msg}");
    exit(1)
}

fn parse_args() -> Result<Args, CliError> {
    let mut flags = Flags::from_env();
    let command = flags.next().ok_or(CliError::Usage)?;
    if !matches!(command.as_str(), "explain" | "slices" | "baseline") {
        return Err(CliError::Usage);
    }
    let (mut progress, mut checkpoint_dir, mut resume, mut json) = (false, None, false, false);
    let run = RunArgs::parse(&mut flags, |flag, flags| {
        match flag {
            "--progress" => progress = true,
            "--checkpoint-dir" => checkpoint_dir = Some(flags.value()?),
            "--resume" => resume = true,
            "--json" => json = true,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let args = Args { command, run, progress, checkpoint_dir, resume, json };
    let failed = |msg: &str| Err(CliError::Failed(msg.into()));
    if args.resume && args.checkpoint_dir.is_none() {
        return failed("--resume requires --checkpoint-dir");
    }
    if args.json && args.command != "explain" {
        return failed("--json only applies to the explain command");
    }
    if args.checkpoint_dir.is_some() && args.command != "explain" {
        return failed("--checkpoint-dir only applies to the explain command");
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), CliError> {
    let trace = args.run.start_trace();
    if args.progress {
        fume::obs::progress::set_observer(|snap| {
            // Rewrite one stderr status line in place.
            eprint!("\r\x1b[K{}", fume::obs::progress::status_line(snap));
        });
    }
    let (train, test, group) = args.run.load()?;
    let banner = args.run.loaded_banner(&train, &test);
    if args.json {
        // Keep stdout pure JSON for scripting.
        eprintln!("{banner}");
    } else {
        println!("{banner}");
    }
    let mut cfg = args.run.config();
    if let Some(dir) = &args.checkpoint_dir {
        cfg = cfg.with_checkpoint_dir(dir);
    }
    if let Some(trace) = &trace {
        trace.stamp(&args.run, &args.command, &train, &test, group);
    }

    match args.command.as_str() {
        "explain" => {
            let fume = match &args.checkpoint_dir {
                Some(dir) if args.resume => Fume::resume(dir)?,
                _ => Fume::new(cfg),
            };
            let report = fume.run(&ExplainRequest::new(&train, &test, group))?;
            if args.json {
                println!("{}", report.to_json());
            } else {
                println!(
                    "\nmodel accuracy {:.1}% · {} violation |F| = {:.4} · \
                     {} unlearning ops in {:.2}s\n",
                    report.original_accuracy * 100.0,
                    report.metric.name(),
                    report.original_bias,
                    report.unlearning_operations,
                    report.search_time.as_secs_f64()
                );
                print!("{}", report.to_markdown());
                eprint!("\n{}", report.timing_table());
            }
        }
        "slices" => {
            let forest = DareForest::fit(&train, cfg.forest.clone());
            println!("\nmodel accuracy {:.1}%\n", forest.accuracy(&test) * 100.0);
            let slices = find_slices(&forest, &test, &cfg.search_params()?, args.run.top_k);
            println!("| # | Slice | Support | Slice error | Rest error |");
            println!("|---|---|---|---|---|");
            for (i, s) in slices.iter().enumerate() {
                println!(
                    "| {} | {} | {:.2}% | {:.2}% | {:.2}% |",
                    i + 1,
                    s.pattern,
                    s.support * 100.0,
                    s.slice_error * 100.0,
                    s.rest_error * 100.0
                );
            }
        }
        _ => {
            let b = drop_unpriv_unfavor(&train, &test, group, args.run.metric, &cfg.forest);
            println!(
                "\nDropUnprivUnfavor: removes {:.2}% of training data\n\
                 bias {:.4} -> {:.4} (parity reduction {:.2}%)\n\
                 accuracy {:.2}% -> {:.2}%",
                b.removed_fraction * 100.0,
                b.bias_before,
                b.bias_after,
                b.parity_reduction * 100.0,
                b.accuracy_before * 100.0,
                b.accuracy_after * 100.0
            );
        }
    }

    if args.progress {
        // Terminate the rewriting status line.
        eprintln!();
    }
    match &trace {
        Some(trace) => trace.finish("fume-cli"),
        None => Ok(()),
    }
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    match result {
        Ok(()) => {}
        Err(CliError::Usage) => usage(),
        Err(CliError::Failed(msg)) => fail(msg),
    }
}
