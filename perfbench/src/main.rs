//! `perfbench` — one repetition of a bosim benchmark workload, or the
//! workload's layer replay kernels, printed as one JSON line.
//!
//! ```text
//! perfbench rep     --workload core-462 --seed 1 --size full --work DIR [--traced] [--replay]
//! perfbench kernels --workload core-462 --seed 1 --size full --work DIR --dram-gap CYCLES
//! ```
//!
//! `run.py` builds this binary, runs it repeatedly for the measured
//! time and turns the lines into the benchmark's metrics; see README.md.

mod hostspeed;
mod kernels;
mod rep;
mod span;
mod workload;

use std::path::PathBuf;
use workload::{Size, Workload};

const USAGE: &str = "usage: perfbench <rep|kernels> --workload NAME --seed N \
                     [--size full|tiny] --work DIR [--traced] [--replay] [--dram-gap CYCLES]";

fn main() {
    match run(std::env::args().skip(1).collect()) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: Vec<String>) -> Result<String, String> {
    let mut it = args.iter();
    let mode = it.next().ok_or(USAGE)?.clone();
    let (mut workload, mut seed, mut size, mut work) = (None, None, Size::Full, None);
    let (mut traced, mut replay, mut dram_gap) = (false, false, 0.0);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| e.to_string())?),
            "--size" => {
                let v = value()?;
                size = Size::parse(v).ok_or(format!("unknown size {v:?}"))?;
            }
            "--work" => work = Some(PathBuf::from(value()?)),
            "--dram-gap" => dram_gap = value()?.parse::<f64>().map_err(|e| e.to_string())?,
            "--traced" => traced = true,
            "--replay" => replay = true,
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or(USAGE)?;
    let seed = seed.ok_or(USAGE)?;
    let work = work.ok_or(USAGE)?;
    let doc = match mode.as_str() {
        "rep" => rep::run(&rep::RepArgs {
            workload,
            seed,
            size,
            traced,
            replay,
            work: &work,
        })?,
        "kernels" => kernels::run(workload, seed, size, &work, dram_gap)?,
        _ => return Err(USAGE.to_string()),
    };
    Ok(doc.to_string())
}
