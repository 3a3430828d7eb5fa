//! `repro` — regenerate any table or figure of the DATE 2010 paper.
//!
//! ```text
//! repro <experiment> [--csv <dir>]
//!
//! experiments:
//!   table1 table2                      the paper's tables
//!   fig2 fig4 fig6 fig7 fig8 fig9      figure data series / renderings
//!   fig10 fig11
//!   latency powerloss imax elmore      §V / §I claims and ablations
//!   yieldsweep temperature reliability
//!   azsa retention alphasweep differential
//!   fig5mc                             batched Monte-Carlo campaigns
//!   all                                everything, in order
//! ```

use std::path::PathBuf;

use stt_bench::{extras, figures, montecarlo, tables};
use stt_stats::Table;

#[derive(Debug)]
struct Experiment {
    id: &'static str,
    title: &'static str,
    run: fn() -> (Option<Table>, Option<String>),
}

const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "table1",
        title: "Table I — electrical parameters of MTJ and NMOS transistor",
        run: || (Some(tables::table1()), None),
    },
    Experiment {
        id: "table2",
        title: "Table II — robustness of the two self-reference schemes",
        run: || (Some(tables::table2()), None),
    },
    Experiment {
        id: "fig2",
        title: "Fig. 2 — measured static R–I curve of an MgO-based MTJ",
        run: || (Some(figures::fig2()), None),
    },
    Experiment {
        id: "fig4",
        title: "Fig. 4 — R–I curve in self-reference schemes",
        run: || (Some(figures::fig4()), None),
    },
    Experiment {
        id: "fig6",
        title: "Fig. 6 — selection of read current ratio β = I_R2/I_R1",
        run: || {
            let (table, annotation) = figures::fig6();
            (Some(table), Some(annotation))
        },
    },
    Experiment {
        id: "fig7",
        title: "Fig. 7 — robustness for NMOS transistor resistance",
        run: || {
            let (table, annotation) = figures::fig7();
            (Some(table), Some(annotation))
        },
    },
    Experiment {
        id: "fig8",
        title: "Fig. 8 — robustness for voltage ratio",
        run: || {
            let (table, annotation) = figures::fig8();
            (Some(table), Some(annotation))
        },
    },
    Experiment {
        id: "fig9",
        title: "Fig. 9 — timing diagram of nondestructive self-reference",
        run: || (None, Some(figures::fig9())),
    },
    Experiment {
        id: "fig10",
        title: "Fig. 10 — simulation result of nondestructive self-reference",
        run: || {
            let (table, annotation) = figures::fig10();
            (Some(table), Some(annotation))
        },
    },
    Experiment {
        id: "fig11",
        title: "Fig. 11 — sense margins for all sensing schemes (16 kb chip)",
        run: || {
            let (table, annotation) = figures::fig11();
            (Some(table), Some(annotation))
        },
    },
    Experiment {
        id: "latency",
        title: "E1 — read latency and energy per scheme (§V)",
        run: || (Some(extras::latency()), None),
    },
    Experiment {
        id: "powerloss",
        title: "E2 — nonvolatility under power failure (§I)",
        run: || (Some(extras::powerloss()), None),
    },
    Experiment {
        id: "imax",
        title: "E3 — sense margin vs maximum read current (§V future work)",
        run: || (Some(extras::imax_sweep()), None),
    },
    Experiment {
        id: "elmore",
        title: "E4 — bit-line Elmore delay per sensing configuration (§V)",
        run: || (Some(extras::elmore()), None),
    },
    Experiment {
        id: "yieldsweep",
        title: "E5 — yield vs bit-to-bit variation σ (ablation)",
        run: || (Some(extras::yield_sweep()), None),
    },
    Experiment {
        id: "temperature",
        title: "E6 — sense margin vs die temperature (extension)",
        run: || (Some(extras::temperature()), None),
    },
    Experiment {
        id: "reliability",
        title: "E7 — per-read reliability budget (endurance, disturb, exposure)",
        run: || (Some(extras::reliability()), None),
    },
    Experiment {
        id: "azsa",
        title: "E8 — auto-zero sense amplifier at circuit level",
        run: || (Some(extras::autozero()), None),
    },
    Experiment {
        id: "retention",
        title: "E9 — data retention vs die temperature (extension)",
        run: || (Some(extras::retention()), None),
    },
    Experiment {
        id: "alphasweep",
        title: "E10 — divider-ratio ablation: why α = 0.5 (DESIGN.md §10)",
        run: || (Some(extras::alpha_sweep()), None),
    },
    Experiment {
        id: "differential",
        title: "E11 — 2T-2MTJ complementary-cell baseline vs the schemes",
        run: || (Some(extras::differential()), None),
    },
    Experiment {
        id: "fig5mc",
        title: "E12 — batched Fig. 5 read-current variation campaign (multi-RHS)",
        run: || {
            let (table, annotation) = montecarlo::fig5_mc();
            (Some(table), Some(annotation))
        },
    },
];

/// A parsed command line: the experiments to run, in order, and the
/// directory to write their tables into as CSV, if any.
#[derive(Debug)]
struct Cli {
    experiments: Vec<&'static Experiment>,
    csv_dir: Option<PathBuf>,
}

/// Parses the command line. Every experiment id is resolved here, so a
/// command line naming an unknown one fails before any experiment runs.
fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut csv_dir = None;
    let mut wanted: Vec<&str> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--csv" {
            let dir = iter.next().ok_or("--csv needs a directory argument")?;
            csv_dir = Some(PathBuf::from(dir));
        } else {
            wanted.push(arg);
        }
    }
    if wanted.is_empty() {
        return Err(String::from("no experiment given"));
    }
    let mut experiments = Vec::new();
    for &id in wanted.iter().filter(|&&id| id != "all") {
        let experiment = EXPERIMENTS
            .iter()
            .find(|e| e.id == id)
            .ok_or_else(|| format!("unknown experiment: {id}"))?;
        experiments.push(experiment);
    }
    if wanted.contains(&"all") {
        experiments = EXPERIMENTS.iter().collect();
    }
    Ok(Cli {
        experiments,
        csv_dir,
    })
}

/// Runs the experiments in order, printing each and writing its table
/// into the CSV directory, which is created before the first runs.
fn run(cli: &Cli) -> Result<(), String> {
    if let Some(dir) = &cli.csv_dir {
        std::fs::create_dir_all(dir)
            .map_err(|error| format!("create csv directory {}: {error}", dir.display()))?;
    }
    for experiment in &cli.experiments {
        println!("════ {} ════\n", experiment.title);
        let (table, annotation) = (experiment.run)();
        if let Some(table) = &table {
            println!("{table}");
            if let Some(dir) = &cli.csv_dir {
                let path = dir.join(format!("{}.csv", experiment.id));
                std::fs::write(&path, table.to_csv())
                    .map_err(|error| format!("write {}: {error}", path.display()))?;
                println!("(csv written to {})", path.display());
            }
        }
        if let Some(annotation) = annotation {
            println!("{annotation}");
        }
        println!();
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = parse_args(&args).unwrap_or_else(|error| {
        eprintln!("{error}\n");
        usage();
        std::process::exit(2);
    });
    if let Err(error) = run(&cli) {
        eprintln!("{error}");
        std::process::exit(1);
    }
}

fn usage() {
    eprintln!("usage: repro <experiment>... [--csv <dir>]");
    eprintln!("experiments:");
    for experiment in EXPERIMENTS {
        eprintln!("  {:<10}  {}", experiment.id, experiment.title);
    }
    eprintln!("  {:<10}  run every experiment in order", "all");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&owned)
    }

    fn ids(cli: &Cli) -> Vec<&'static str> {
        cli.experiments.iter().map(|e| e.id).collect()
    }

    #[test]
    fn experiments_resolve_in_command_line_order() {
        let cli = parse(&["fig9", "--csv", "out", "table1"]).unwrap();
        assert_eq!(ids(&cli), ["fig9", "table1"]);
        assert_eq!(cli.csv_dir, Some(PathBuf::from("out")));
        assert_eq!(parse(&["table2"]).unwrap().csv_dir, None);

        let all = parse(&["all"]).unwrap();
        assert_eq!(all.experiments.len(), EXPERIMENTS.len());
        assert_eq!(ids(&parse(&["table1", "all"]).unwrap()), ids(&all));
    }

    #[test]
    fn bad_command_lines_fail_before_any_experiment_runs() {
        let error = parse(&["table1", "bogus"]).unwrap_err();
        assert_eq!(error, "unknown experiment: bogus");
        assert!(parse(&["all", "bogus"]).is_err());
        assert!(parse(&[]).is_err());
        assert!(parse(&["--csv", "out"]).is_err());
        assert!(parse(&["table1", "--csv"]).is_err());
    }

    #[test]
    fn an_uncreatable_csv_directory_is_an_error_not_a_panic() {
        let root = std::env::temp_dir().join(format!("repro-csv-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let file = root.join("regular-file");
        std::fs::write(&file, "not a directory").unwrap();
        let cli = Cli {
            experiments: vec![&EXPERIMENTS[0]],
            csv_dir: Some(file.join("csv")),
        };
        let error = run(&cli).unwrap_err();
        assert!(error.starts_with("create csv directory "), "{error}");
        assert!(!file.join("csv").exists());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
