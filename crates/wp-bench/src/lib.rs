//! Every simulator artefact under `results/` ([`results`]), the
//! measured-vs-simulated [`drift`] analysis behind the `trace` binary, the
//! autotuner's [`tune`] points, the multi-process launcher behind `ranks`,
//! and the flag readers and one-line failure exit the binaries share.

pub mod drift;
pub mod ranks;
pub mod results;
pub mod tune;

/// The value following flag `name` on this process's command line, when
/// the flag is given — the one flag reader the binaries share.
///
/// # Panics
/// Panics if `name` is the last argument.
pub fn flag_value(name: &str) -> Option<String> {
    let mut args = std::env::args();
    args.find(|a| a == name).map(|_| {
        args.next()
            .unwrap_or_else(|| panic!("{name} needs a value"))
    })
}

/// Whether flag `name` is on this process's command line.
pub fn has_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Print a one-line reason on stderr and exit nonzero — the bench
/// binaries' replacement for `assert!`, so CI logs end with the actual
/// regression instead of a panic backtrace.
pub fn fail(bench: &str, reason: &str) -> ! {
    eprintln!("wp-bench {bench}: FAIL: {reason}");
    std::process::exit(1);
}
