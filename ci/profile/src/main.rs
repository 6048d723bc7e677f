//! `whisper-profile` — where a workload's host CPU time goes.
//!
//! Samples the process every `--period-us` of CPU time with `SIGPROF`
//! (see [`sampler`]), walks each sample's frame-pointer chain, and
//! prints two tables:
//!
//! * **self** — the innermost function at each sample's leaf address,
//!   inlined callees included (`addr2line -f -C -i`);
//! * **inclusive** — every function on each sample's stack, counted
//!   once per sample (symbol table, `nm -C -n`).
//!
//! ```text
//! ci/profile.sh suite      [--scale S] [--runs N] [--top N] [--period-us U]
//! ci/profile.sh gates      ...    # the CI invocation minus --trace
//! ci/profile.sh consumers  ...    # every trace reader over recorded traces
//! ```
//!
//! `ci/profile.sh` builds this package with `-C force-frame-pointers=yes`;
//! without frame pointers the inclusive table only sees leaf frames.
//! Everything runs on one host thread (`--parallel 1`), which is the
//! thread the walk can follow.

#![deny(unsafe_code)]

// The one module allowed `unsafe`: the signal handler and the libc
// calls that arm it.
#[allow(unsafe_code)]
mod sampler;

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};
use std::time::Instant;
use whisper::suite::{analyze, fig10_for, run_suite, SuiteConfig};

struct Args {
    workload: String,
    scale: Option<f64>,
    seed: u64,
    runs: usize,
    top: usize,
    period_us: i64,
}

fn parse() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let workload = args
        .next()
        .ok_or("usage: whisper-profile suite|gates|consumers [--scale S] [--seed N] [--runs N] [--top N] [--period-us U]")?;
    let mut a = Args {
        workload,
        scale: None,
        seed: 42,
        runs: 1,
        top: 25,
        period_us: 1000,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--scale" => a.scale = Some(value.parse().map_err(|e| bad(&e))?),
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--runs" => a.runs = value.parse().map_err(|e| bad(&e))?,
            "--top" => a.top = value.parse().map_err(|e| bad(&e))?,
            "--period-us" => a.period_us = value.parse().map_err(|e| bad(&e))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(a)
}

fn suite_cfg(scale: f64, seed: u64) -> SuiteConfig {
    SuiteConfig {
        scale,
        seed,
        parallelism: 1,
        worker_threads: 4,
    }
}

/// Run the chosen workload `runs` times with the sampler on; untimed
/// preparation (the consumers' recorded traces) happens before it.
fn profile(a: &Args, stack_top: u64) -> Result<(Vec<Vec<u64>>, usize, f64), String> {
    let sampled = |work: &mut dyn FnMut()| {
        sampler::start(a.period_us, stack_top);
        let t0 = Instant::now();
        for _ in 0..a.runs {
            work();
        }
        let wall = t0.elapsed().as_secs_f64();
        let (samples, dropped) = sampler::stop();
        (samples, dropped, wall)
    };
    match a.workload.as_str() {
        "suite" => {
            let cfg = suite_cfg(a.scale.unwrap_or(1.0), a.seed);
            Ok(sampled(&mut || drop(run_suite(&cfg))))
        }
        "gates" => {
            let dir = std::env::temp_dir().join(format!("whisper-profile-{}", std::process::id()));
            let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
            let mut args = vec![
                "--json".to_string(),
                path("report.json"),
                "--check-graph".to_string(),
                path("graphs"),
                "--scale".to_string(),
                a.scale.unwrap_or(0.05).to_string(),
                "--seed".to_string(),
                a.seed.to_string(),
            ];
            let gates = "--check --crossval --crash --optimize --serve --profile --quiet";
            let shape = "--parallel 1 --threads 4";
            args.extend(format!("{gates} {shape}").split(' ').map(String::from));
            let mut code = 0;
            let out = sampled(&mut || {
                code = whisper::driver::run(&args, &mut std::io::sink());
            });
            let _ = std::fs::remove_dir_all(&dir);
            if code != 0 {
                return Err(format!("whisper-report exited {code}"));
            }
            Ok(out)
        }
        "consumers" => {
            let results = run_suite(&suite_cfg(a.scale.unwrap_or(0.3), a.seed));
            Ok(sampled(&mut || {
                for r in &results {
                    drop(analyze(&r.run));
                    drop(fig10_for(&r.run.events));
                }
                drop(whisper::check::check_results(&results));
                drop(whisper::hbgraph::build_graphs(&results));
                for r in &results {
                    drop(pmcheck::rewrite_events(&r.run.events));
                    let bytes = pmtrace::encode_events(&r.run.events);
                    drop(pmtrace::decode_events(&bytes));
                }
            }))
        }
        other => Err(format!(
            "unknown workload {other:?}; use suite|gates|consumers"
        )),
    }
}

/// What `/proc/self/maps` says about the process's code and stack.
struct Maps {
    /// Load base and end of the executable's mappings.
    exe: (u64, u64),
    /// End of the main thread's stack mapping.
    stack_top: u64,
    /// Every other file mapping: `(start, end, file name)`.
    libs: Vec<(u64, u64, String)>,
}

fn maps(exe: &str) -> Result<Maps, String> {
    let text = std::fs::read_to_string("/proc/self/maps").map_err(|e| e.to_string())?;
    let (mut base, mut end, mut stack_top, mut libs) = (None, 0, None, Vec::new());
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let Some((lo, hi)) = fields[0].split_once('-') else {
            continue;
        };
        let hex = |s: &str| u64::from_str_radix(s, 16).unwrap_or(0);
        match fields.get(5) {
            Some(&"[stack]") => stack_top = Some(hex(hi)),
            Some(&path) if path == exe => {
                if hex(fields[2]) == 0 && base.is_none() {
                    base = Some(hex(lo));
                }
                end = end.max(hex(hi));
            }
            Some(&path) if path.starts_with('/') => {
                let name = path.rsplit('/').next().unwrap_or(path);
                libs.push((hex(lo), hex(hi), format!("[{name}]")));
            }
            _ => {}
        }
    }
    Ok(Maps {
        exe: (base.ok_or("executable not mapped")?, end),
        stack_top: stack_top.ok_or("no [stack] mapping")?,
        libs,
    })
}

/// A demangled name without its `::h<hash>` suffix.
fn tidy(name: &str) -> String {
    match name.rsplit_once("::h") {
        Some((head, hash)) if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) => {
            head.to_string()
        }
        _ => name.to_string(),
    }
}

/// Function symbols of `exe`, sorted by address (`nm -C -n`).
fn symbols(exe: &str) -> Result<Vec<(u64, String)>, String> {
    let out = Command::new("nm")
        .args(["-C", "-n", "--defined-only", exe])
        .output()
        .map_err(|e| format!("nm: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    Ok(text
        .lines()
        .filter_map(|l| {
            let mut parts = l.splitn(3, ' ');
            let addr = u64::from_str_radix(parts.next()?, 16).ok()?;
            let kind = parts.next()?;
            let name = parts.next()?;
            matches!(kind, "t" | "T" | "w" | "W").then(|| (addr, tidy(name)))
        })
        .collect())
}

fn symbol_of(symbols: &[(u64, String)], addr: u64) -> &str {
    match symbols.partition_point(|(a, _)| *a <= addr) {
        0 => "??",
        i => &symbols[i - 1].1,
    }
}

/// The innermost (inlined) function at each address, from one
/// `addr2line -f -C -i -a` process.
fn innermost(exe: &str, addrs: &[u64]) -> Result<HashMap<u64, String>, String> {
    let mut child = Command::new("addr2line")
        .args(["-f", "-C", "-i", "-a", "-e", exe])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("addr2line: {e}"))?;
    let mut stdin = child.stdin.take().expect("piped");
    let input: String = addrs.iter().map(|a| format!("{a:#x}\n")).collect();
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let mut names = HashMap::new();
    let mut current: Option<u64> = None;
    for line in BufReader::new(child.stdout.take().expect("piped")).lines() {
        let line = line.map_err(|e| e.to_string())?;
        if let Some(hex) = line.strip_prefix("0x") {
            current = u64::from_str_radix(hex, 16).ok();
        } else if let Some(addr) = current.take() {
            // The first function line after an address is the
            // innermost frame; the rest are its inlining callers.
            names.insert(addr, tidy(&line));
        }
    }
    writer.join().expect("writer").map_err(|e| e.to_string())?;
    child.wait().map_err(|e| e.to_string())?;
    Ok(names)
}

fn table(title: &str, counts: HashMap<String, usize>, total: usize, top: usize) {
    let mut rows: Vec<(String, usize)> = counts.into_iter().collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    println!("\n{title}");
    println!("{:>7} {:>8}  function", "%", "samples");
    for (name, n) in rows.into_iter().take(top) {
        let pct = 100.0 * n as f64 / total.max(1) as f64;
        println!("{pct:>6.2}% {n:>8}  {name}");
    }
}

fn main() {
    let a = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("whisper-profile: {e}");
            std::process::exit(2);
        }
    };
    let report = || -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let exe = exe.to_string_lossy().into_owned();
        let maps = maps(&exe)?;
        let (samples, dropped, wall) = profile(&a, maps.stack_top)?;
        // The executable is position-independent: a code address in it
        // is its load base plus its link address. Addresses in shared
        // libraries (memcpy, malloc) are named after the library.
        let (base, end) = maps.exe;
        let in_exe = |addr: u64| (base..end).contains(&addr);
        let lib = |addr: u64| {
            let hit = maps
                .libs
                .iter()
                .find(|(lo, hi, _)| (*lo..*hi).contains(&addr));
            hit.map_or("[unknown]", |(_, _, name)| name.as_str())
        };
        let symbols = symbols(&exe)?;
        let mut leaves: Vec<u64> = samples
            .iter()
            .filter_map(|s| s.first().copied().filter(|&a| in_exe(a)))
            .map(|a| a - base)
            .collect();
        leaves.sort_unstable();
        leaves.dedup();
        let inner = innermost(&exe, &leaves)?;

        let mut own: HashMap<String, usize> = HashMap::new();
        let mut incl: HashMap<String, usize> = HashMap::new();
        for s in &samples {
            let Some(&leaf) = s.first() else { continue };
            let name = if in_exe(leaf) {
                inner
                    .get(&(leaf - base))
                    .filter(|n| n.as_str() != "??")
                    .cloned()
                    .unwrap_or_else(|| symbol_of(&symbols, leaf - base).to_string())
            } else {
                lib(leaf).to_string()
            };
            *own.entry(name).or_default() += 1;
            // Return addresses point after the call: look up `ret - 1`.
            // Frames outside the executable (the C runtime's start-up
            // frames, a library's own callers) count only as a leaf.
            let mut seen: Vec<&str> = s
                .iter()
                .enumerate()
                .filter(|&(i, &addr)| i == 0 || in_exe(addr))
                .map(|(i, &addr)| match (in_exe(addr), i) {
                    (false, _) => lib(addr),
                    (true, 0) => symbol_of(&symbols, addr - base),
                    (true, _) => symbol_of(&symbols, addr - 1 - base),
                })
                .collect();
            seen.sort_unstable();
            seen.dedup();
            for name in seen {
                *incl.entry(name.to_string()).or_default() += 1;
            }
        }
        let depth =
            samples.iter().map(Vec::len).sum::<usize>() as f64 / samples.len().max(1) as f64;
        println!(
            "whisper-profile {}: {} samples every {} us of CPU ({dropped} dropped), {wall:.2} s wall, mean stack depth {depth:.1}",
            a.workload,
            samples.len(),
            a.period_us,
        );
        table(
            "self (innermost function at the sampled address)",
            own,
            samples.len(),
            a.top,
        );
        table(
            "inclusive (functions on the stack, once per sample)",
            incl,
            samples.len(),
            a.top,
        );
        Ok(())
    };
    if let Err(e) = report() {
        eprintln!("whisper-profile: {e}");
        std::process::exit(1);
    }
}
