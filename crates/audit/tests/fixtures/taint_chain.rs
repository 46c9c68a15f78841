//! scan-as: crates/vssd/src/engine/taint_fixture.rs
//!
//! A nondeterminism source (`Instant::now`) two calls below
//! `Engine::dispatch_event`. The simulation scope covers the whole file,
//! so `host-time-scope` reports the source line whatever reaches it.

pub struct Engine;

impl Engine {
    pub fn dispatch_event(&self) {
        self.helper();
    }

    fn helper(&self) {
        leaf_timestamp();
    }
}

fn leaf_timestamp() -> u64 {
    let t = std::time::Instant::now(); //~ host-time-scope
    t.elapsed().as_nanos() as u64
}
