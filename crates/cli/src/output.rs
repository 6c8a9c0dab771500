//! The CLI's report output: one writer over stdout, used through the
//! `out!` and `outln!` macros in place of `print!` and `println!`.
//!
//! `println!` panics when its reader has gone away, so
//! `spechpc profile minisweep -n 16 | head -1` used to end in "failed
//! printing to stdout: Broken pipe" and exit status 101. Here a
//! `BrokenPipe` quietly drops that write and every later one: the
//! command still finishes its work (cache stores, CSV files) and exits
//! with its usual status.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once stdout's reader has closed the pipe.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Write `args` to stdout, unless the reader has gone. Any error other
/// than `BrokenPipe` ends the process with exit status 1.
pub fn write(args: fmt::Arguments) {
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => CLOSED.store(true, Ordering::Relaxed),
        Err(e) => {
            eprintln!("error: writing to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// [`write`] then a newline, in one write.
pub fn line(args: fmt::Arguments) {
    write(format_args!("{args}\n"))
}

/// `print!` through [`write`].
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::output::write(format_args!($($arg)*))
    };
}

/// `println!` through [`line`].
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::output::line(format_args!($($arg)*))
    };
}
