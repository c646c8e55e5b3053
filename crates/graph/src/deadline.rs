//! One wall-clock deadline, charged per unit of work.

use std::time::{Duration, Instant};

/// How often a charged loop reads the clock.
const INTERVAL: Duration = Duration::from_micros(100);

/// A wall-clock deadline that a loop charges once per unit of work (a
/// probe, a search step, a DP assignment). It reads the clock once every
/// `stride` charges and sets the next stride from the rate it saw since
/// its previous read, so reads come about every 100 µs whatever a unit
/// costs; the stride at most doubles per read. The first charge always
/// reads the clock, so a deadline already past trips at once. Without an
/// instant it never reads the clock. Each loop makes its own poller from
/// the run's one `Instant`, so a stride learned on cheap units never
/// carries over to costly ones.
#[derive(Debug)]
pub struct Deadline {
    at: Option<Instant>,
    last: Option<Instant>,
    stride: u64,
    left: u64,
}

impl Deadline {
    /// A poller for the deadline `at`; `None` never trips.
    pub fn new(at: Option<Instant>) -> Deadline {
        Deadline { at, last: None, stride: 1, left: if at.is_some() { 1 } else { u64::MAX } }
    }

    /// Charges one unit of work. True once the deadline has passed, and
    /// on every later charge.
    #[inline]
    pub fn charge(&mut self) -> bool {
        self.left -= 1;
        self.left == 0 && self.read()
    }

    #[cold]
    fn read(&mut self) -> bool {
        let Some(at) = self.at else {
            self.left = u64::MAX;
            return false;
        };
        let now = Instant::now();
        if now >= at {
            self.left = 1;
            return true;
        }
        if let Some(last) = self.last {
            let spent = now.duration_since(last).as_nanos().max(1);
            let fit = u128::from(self.stride) * INTERVAL.as_nanos() / spent;
            let fit = u64::try_from(fit).unwrap_or(u64::MAX);
            self.stride = fit.clamp(1, self.stride.saturating_mul(2));
        }
        self.last = Some(now);
        self.left = self.stride;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_past_deadline_trips_on_the_first_charge_and_stays_tripped() {
        let mut d = Deadline::new(Some(Instant::now()));
        assert!(d.charge());
        assert!(d.charge());
    }

    #[test]
    fn no_deadline_never_trips() {
        let mut d = Deadline::new(None);
        assert!((0..1_000_000).all(|_| !d.charge()));
    }

    #[test]
    fn a_future_deadline_trips_soon_after_it_passes() {
        let at = Instant::now() + Duration::from_millis(20);
        let mut d = Deadline::new(Some(at));
        let mut units = 0u64;
        while !d.charge() {
            units += 1;
            std::hint::black_box(units);
        }
        let late = Instant::now().duration_since(at);
        assert!(late < Duration::from_millis(50), "tripped {late:?} late after {units} units");
    }

    #[test]
    fn costly_units_read_the_clock_on_every_charge() {
        let at = Instant::now() + Duration::from_millis(30);
        let mut d = Deadline::new(Some(at));
        let mut units = 0u32;
        while !d.charge() {
            units += 1;
            std::thread::sleep(Duration::from_millis(1));
        }
        let late = Instant::now().duration_since(at);
        assert!(late < Duration::from_millis(50), "tripped {late:?} late");
        assert!(units <= 31, "{units} units of 1 ms each before a 30 ms deadline");
    }
}
