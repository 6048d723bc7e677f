//! A leveled stderr logger.
//!
//! Diagnostics must never share stdout with machine-readable output:
//! `whisper-report --json` promises that stdout carries only the
//! report. Everything chatty goes through here, to stderr, filtered by
//! a global level. The threshold starts at [`Level::Info`], and
//! [`set_level`] is the only way to change it: `--quiet` drops it to
//! [`Level::Error`] so scripts see errors and nothing else.

use std::sync::atomic::{AtomicU8, Ordering};

/// Log severity, most severe first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum Level {
    /// Unrecoverable or wrong; always shown, even under `--quiet`.
    Error = 1,
    /// Suspicious but proceeding.
    Warn = 2,
    /// Progress reporting (the default threshold).
    Info = 3,
}

impl Level {
    fn from_u8(v: u8) -> Level {
        match v {
            1 => Level::Error,
            2 => Level::Warn,
            _ => Level::Info,
        }
    }

    /// Lowercase name, as printed in the log prefix.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
        }
    }
}

static LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);

/// Set the maximum level that will be emitted.
pub fn set_level(level: Level) {
    LEVEL.store(level as u8, Ordering::Relaxed);
}

/// The current threshold: the last [`set_level`] value, or
/// [`Level::Info`] before any.
pub fn level() -> Level {
    Level::from_u8(LEVEL.load(Ordering::Relaxed))
}

/// Whether a message at `l` would currently be emitted.
pub fn enabled_at(l: Level) -> bool {
    l <= level()
}

/// Emit one record to stderr (used by the [`error!`](crate::error) /
/// [`warn!`](crate::warn) / [`info!`](crate::info) macros).
pub fn log(l: Level, args: std::fmt::Arguments<'_>) {
    if enabled_at(l) {
        eprintln!("[{}] {}", l.as_str(), args);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_threshold_math() {
        let _lock = crate::test_lock();
        set_level(Level::Info);
        assert!(enabled_at(Level::Error));
        assert!(enabled_at(Level::Info));
        set_level(Level::Warn);
        assert!(enabled_at(Level::Warn));
        assert!(!enabled_at(Level::Info));
        set_level(Level::Error);
        assert!(enabled_at(Level::Error));
        assert!(!enabled_at(Level::Warn));
        set_level(Level::Info);
    }

    #[test]
    fn level_round_trips() {
        for l in [Level::Error, Level::Warn, Level::Info] {
            assert_eq!(Level::from_u8(l as u8), l);
        }
    }

    #[test]
    fn explicit_set_level_overrides_env_default() {
        let _lock = crate::test_lock();
        // Every test that moves the threshold holds the lock and puts
        // it back, so here it is still the process's starting value.
        assert_eq!(level(), Level::Info);
        set_level(Level::Warn);
        assert_eq!(level(), Level::Warn);
        set_level(Level::Error);
        assert_eq!(level(), Level::Error);
        set_level(Level::Info);
        assert_eq!(level(), Level::Info);
    }
}
