//! Virtual SSD configuration.

use fleetio_des::SimDuration;
use fleetio_flash::addr::ChannelId;

/// Identifier of a virtual SSD instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VssdId(pub u32);

impl std::fmt::Display for VssdId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vssd{}", self.0)
    }
}

/// How a vSSD's channels are shared (§2.1 and Figure 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationMode {
    /// The vSSD fully owns its channels (strongest isolation, lowest
    /// utilization). FleetIO starts every vSSD in this mode by default
    /// (§4.1) and harvests across them.
    Hardware,
    /// The vSSD shares its channels with other software-isolated vSSDs,
    /// throttled by a token bucket and scheduled by stride scheduling.
    Software,
}

/// Configuration of one vSSD.
#[derive(Debug, Clone, PartialEq)]
pub struct VssdConfig {
    /// Identifier, unique within an engine.
    pub id: VssdId,
    /// Home channels allocated to this vSSD.
    pub channels: Vec<ChannelId>,
    /// Isolation mode of the home channels.
    pub isolation: IsolationMode,
    /// Tail-latency SLO. A completed request counts as an SLO violation
    /// when its latency exceeds this bound. `None` disables SLO tracking
    /// (e.g. for pure-bandwidth tenants before calibration).
    pub slo: Option<SimDuration>,
    /// Token-bucket rate limit in bytes/second for software isolation;
    /// ignored under hardware isolation. `None` means unthrottled.
    pub rate_limit: Option<f64>,
    /// Stride-scheduling tickets (share weight) under software isolation.
    pub tickets: u32,
    /// Fraction of the listed channels' logical capacity this vSSD may
    /// address. Hardware-isolated vSSDs own their channels outright (1.0);
    /// software-isolated vSSDs sharing channels must split the capacity
    /// (e.g. 0.5 each for two tenants) or they would overcommit the flash.
    pub capacity_share: f64,
}

impl VssdConfig {
    /// A hardware-isolated vSSD on `channels` with no SLO.
    pub fn hardware(id: VssdId, channels: Vec<ChannelId>) -> Self {
        VssdConfig {
            id,
            channels,
            isolation: IsolationMode::Hardware,
            slo: None,
            rate_limit: None,
            tickets: 100,
            capacity_share: 1.0,
        }
    }

    /// A software-isolated vSSD on `channels` with no SLO.
    pub fn software(id: VssdId, channels: Vec<ChannelId>) -> Self {
        VssdConfig {
            isolation: IsolationMode::Software,
            ..Self::hardware(id, channels)
        }
    }

    /// Sets the tail-latency SLO (builder style).
    pub fn with_slo(mut self, slo: SimDuration) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Sets the token-bucket rate limit in bytes/second (builder style).
    pub fn with_rate_limit(mut self, bytes_per_sec: f64) -> Self {
        self.rate_limit = Some(bytes_per_sec);
        self
    }

    /// Sets the capacity share (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `share` is in `(0, 1]`.
    pub fn with_capacity_share(mut self, share: f64) -> Self {
        assert!(
            share > 0.0 && share <= 1.0,
            "capacity share must be in (0, 1]"
        );
        self.capacity_share = share;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message when the vSSD has no channels or duplicated
    /// channels, no stride tickets, or a capacity share outside `(0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        if self.channels.is_empty() {
            return Err(format!("{} has no channels", self.id));
        }
        let mut sorted = self.channels.clone();
        sorted.sort();
        sorted.dedup();
        if sorted.len() != self.channels.len() {
            return Err(format!("{} has duplicate channels", self.id));
        }
        if self.tickets == 0 {
            return Err(format!("{} has no stride tickets", self.id));
        }
        if !(self.capacity_share > 0.0 && self.capacity_share <= 1.0) {
            return Err(format!(
                "{} has capacity share {}, outside (0, 1]",
                self.id, self.capacity_share
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        let c = VssdConfig::hardware(VssdId(1), vec![ChannelId(0), ChannelId(1)])
            .with_slo(SimDuration::from_millis(1))
            .with_rate_limit(1e6);
        assert_eq!(c.isolation, IsolationMode::Hardware);
        assert_eq!(c.slo, Some(SimDuration::from_millis(1)));
        assert_eq!(c.rate_limit, Some(1e6));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn software_mode_flag() {
        let c = VssdConfig::software(VssdId(2), vec![ChannelId(0)]);
        assert_eq!(c.isolation, IsolationMode::Software);
    }

    #[test]
    fn validate_rejects_empty_and_duplicates() {
        let c = VssdConfig::hardware(VssdId(0), vec![]);
        assert!(c.validate().is_err());
        let c = VssdConfig::hardware(VssdId(0), vec![ChannelId(1), ChannelId(1)]);
        assert!(c.validate().unwrap_err().contains("duplicate"));
    }

    #[test]
    fn validate_rejects_zero_tickets_and_shares_outside_the_unit_interval() {
        let mut c = VssdConfig::hardware(VssdId(0), vec![ChannelId(0)]);
        c.tickets = 0;
        assert!(c.validate().unwrap_err().contains("tickets"));
        for share in [0.0, -0.5, 1.5, f64::NAN] {
            let mut c = VssdConfig::hardware(VssdId(0), vec![ChannelId(0)]);
            c.capacity_share = share;
            assert!(
                c.validate().unwrap_err().contains("capacity share"),
                "{share}"
            );
        }
    }

    #[test]
    fn display_is_stable() {
        assert_eq!(VssdId(3).to_string(), "vssd3");
    }
}
