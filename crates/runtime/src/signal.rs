//! Graceful shutdown for the long-running front ends: SIGINT and SIGTERM
//! set one process-global flag instead of killing the process, and
//! `wap serve` and `wap watch` poll it to drain and exit 0.

use std::sync::atomic::AtomicBool;

/// Process-global shutdown flag, set from the signal handler.
pub static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Installs SIGINT and SIGTERM handlers that set [`SHUTDOWN`]. A no-op
/// off Unix.
pub fn install_shutdown_handlers() {
    #[cfg(unix)]
    {
        extern "C" fn on_signal(_sig: i32) {
            // only an atomic store: async-signal-safe
            SHUTDOWN.store(true, std::sync::atomic::Ordering::SeqCst);
        }
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGINT, on_signal as extern "C" fn(i32) as usize);
            signal(SIGTERM, on_signal as extern "C" fn(i32) as usize);
        }
    }
}
