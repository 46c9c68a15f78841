//! scan-as: crates/fleetio/src/host_state_fixture.rs
//!
//! Host process and scheduler state in a simulation crate, in functions
//! no simulation entry point calls: path scope reports each source all
//! the same. The RL environment module is not process state.

use crate::env::MultiAgentEnv;

pub fn threads() -> usize {
    std::env::var("FLEETIO_THREADS") //~ host-state
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

pub fn worker_name() -> String {
    format!("{:?}", std::thread::current().id()) //~ host-state
}

pub fn poll(rx: &std::sync::mpsc::Receiver<u64>) -> Option<u64> {
    rx.try_recv().ok() //~ host-state
}

pub fn total(handles: Vec<std::thread::JoinHandle<f64>>) -> f64 {
    let mut sum = 0.0;
    for h in handles {
        sum += h.join().unwrap_or(0.0); //~ host-state
    }
    sum
}
