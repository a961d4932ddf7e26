//! Peak resident memory from `getrusage(2)` and `wait4(2)`, declared
//! here rather than pulled in through a crate.

use std::os::raw::{c_int, c_long};
use std::os::unix::process::ExitStatusExt;
use std::process::{Child, ExitStatus};

#[allow(dead_code)]
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// longs, of which `ru_maxrss` (KiB) is the first. Only the C side
/// reads most fields.
#[allow(dead_code)]
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
}

fn mib(usage: &Rusage) -> f64 {
    usage.ru_maxrss as f64 / 1024.0
}

/// Whose peak to read.
#[derive(Clone, Copy, Debug)]
pub enum Who {
    /// This process (in-process workloads).
    SelfProcess,
    /// The largest of this process's waited-for children (spear-sim).
    Children,
}

/// Peak resident set size in MiB.
pub fn peak_rss_mb(who: Who) -> f64 {
    let who = match who {
        Who::SelfProcess => 0,
        Who::Children => -1,
    };
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value with the layout of the C
    // `struct rusage`, and `who` is RUSAGE_SELF (0) or RUSAGE_CHILDREN
    // (-1); getrusage writes only within that struct.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    mib(&usage)
}

/// Wait for `child` to exit and return its status with its own peak
/// resident set size in MiB. The child is reaped here, so it must not
/// be waited for or signalled through `child` afterwards.
pub fn wait_with_peak(child: &Child) -> Result<(ExitStatus, f64), String> {
    let pid = c_int::try_from(child.id()).map_err(|_| "child pid out of range".to_string())?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable values of the C
        // types wait4 expects, and `pid` names a child of this process
        // that nothing else has reaped.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((ExitStatus::from_raw(status), mib(&usage)));
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(format!("cannot wait for process {pid}: {err}"));
        }
    }
}
