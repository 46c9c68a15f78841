//! Tenant I/O requests and scheduling priorities.

use fleetio_des::{SimDuration, SimTime};

use crate::vssd::VssdId;

/// Unique id of a submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RequestId(pub u64);

/// Direction of an I/O request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Read from the vSSD.
    Read,
    /// Write to the vSSD.
    Write,
}

impl IoOp {
    /// Whether this is a read.
    pub fn is_read(self) -> bool {
        matches!(self, IoOp::Read)
    }
}

/// I/O scheduling priority (§3.3.2: the `Set_Priority(level)` action picks
/// one of these three levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Priority {
    /// Served only when no higher level is waiting.
    Low,
    /// The default level.
    #[default]
    Medium,
    /// Jumps ahead of both other levels.
    High,
}

impl Priority {
    /// All levels, highest first (dispatch scan order).
    pub const ALL_DESC: [Priority; 3] = [Priority::High, Priority::Medium, Priority::Low];

    /// Index with `High = 0`, used for queue arrays.
    pub fn rank(self) -> usize {
        match self {
            Priority::High => 0,
            Priority::Medium => 1,
            Priority::Low => 2,
        }
    }
}

/// One block-level I/O request issued by a tenant to its vSSD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IoRequest {
    /// The vSSD this request targets.
    pub vssd: VssdId,
    /// Read or write.
    pub op: IoOp,
    /// Byte offset within the vSSD's logical address space.
    pub offset: u64,
    /// Length in bytes (must be positive).
    pub len: u64,
    /// Submission time.
    pub arrival: SimTime,
}

impl IoRequest {
    /// Logical pages `[first, last]` touched by this request.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn page_span(&self, page_bytes: u64) -> (u64, u64) {
        assert!(self.len > 0, "request length must be positive");
        let first = self.offset / page_bytes;
        let last = (self.offset + self.len - 1) / page_bytes;
        (first, last)
    }
}

/// A completed request with its measured service quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompletedRequest {
    /// Id assigned at submission.
    pub id: RequestId,
    /// The vSSD the request targeted.
    pub vssd: VssdId,
    /// Read or write.
    pub op: IoOp,
    /// Byte offset within the vSSD's logical space.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
    /// Submission time.
    pub arrival: SimTime,
    /// Time the first page op began service.
    pub service_start: SimTime,
    /// Time the last page op finished.
    pub completion: SimTime,
}

impl CompletedRequest {
    /// Full arrival-to-completion latency.
    pub fn latency(&self) -> SimDuration {
        self.completion.saturating_since(self.arrival)
    }

    /// Time spent queued before any page op started service.
    pub fn queue_delay(&self) -> SimDuration {
        self.service_start.saturating_since(self.arrival)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(offset: u64, len: u64) -> IoRequest {
        IoRequest {
            vssd: VssdId(0),
            op: IoOp::Read,
            offset,
            len,
            arrival: SimTime::ZERO,
        }
    }

    #[test]
    fn page_span_aligned() {
        let r = req(0, 16384);
        assert_eq!(r.page_span(16384), (0, 0));
    }

    #[test]
    fn page_span_crossing_boundary() {
        let r = req(16000, 1000);
        assert_eq!(r.page_span(16384), (0, 1));
    }

    #[test]
    fn page_span_large_request() {
        let r = req(32768, 65536);
        assert_eq!(r.page_span(16384), (2, 5));
    }

    #[test]
    #[should_panic(expected = "length must be positive")]
    fn zero_length_panics() {
        let _ = req(0, 0).page_span(16384);
    }

    #[test]
    fn priority_order_and_rank() {
        assert!(Priority::High > Priority::Medium);
        assert!(Priority::Medium > Priority::Low);
        assert_eq!(Priority::High.rank(), 0);
        assert_eq!(Priority::default(), Priority::Medium);
        assert_eq!(Priority::ALL_DESC[0], Priority::High);
    }

    #[test]
    fn completed_request_latency_math() {
        let c = CompletedRequest {
            id: RequestId(1),
            vssd: VssdId(0),
            op: IoOp::Write,
            offset: 0,
            len: 4096,
            arrival: SimTime::from_micros(100),
            service_start: SimTime::from_micros(150),
            completion: SimTime::from_micros(400),
        };
        assert_eq!(c.latency().as_micros(), 300);
        assert_eq!(c.queue_delay().as_micros(), 50);
    }
}
