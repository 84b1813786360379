//! Tumbling windows over timestamped samples, grouped by a key.
//!
//! The electricity case study (Section 6.4) "partitions the stream by device
//! ID, windows the stream into hourly intervals, with attributes according to
//! hour of day, day of week, and date". This module provides that group-by +
//! tumbling-window aggregation: it buffers `(key, timestamp, value)` samples
//! and emits one aggregate series per (key, window) pair, tagged with the
//! time attributes MDP later explains over.

use std::collections::BTreeMap;

/// One emitted window: the grouping key, the window index, derived time
/// attributes, and the samples that fell into it (in arrival order).
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedWindow {
    /// The grouping key (e.g. device ID).
    pub key: String,
    /// Index of the window (timestamp / window_length).
    pub window_index: u64,
    /// Hour-of-day attribute derived from the window start (0–23).
    pub hour_of_day: u32,
    /// Day-of-week attribute derived from the window start (0–6).
    pub day_of_week: u32,
    /// The samples collected in this window.
    pub values: Vec<f64>,
}

/// A group-by + tumbling-window operator over `(key, timestamp_seconds, value)`
/// samples.
#[derive(Debug, Clone)]
pub struct TumblingWindower {
    window_seconds: u64,
    /// Buffered samples per (key, window index).
    buffers: BTreeMap<(String, u64), Vec<f64>>,
}

impl TumblingWindower {
    /// Create a windower with the given window length in seconds (3600 for
    /// the paper's hourly windows).
    pub fn new(window_seconds: u64) -> Self {
        assert!(window_seconds > 0, "window length must be positive");
        TumblingWindower {
            window_seconds,
            buffers: BTreeMap::new(),
        }
    }

    /// Observe one sample.
    pub fn observe(&mut self, key: &str, timestamp_seconds: u64, value: f64) {
        let window_index = timestamp_seconds / self.window_seconds;
        self.buffers
            .entry((key.to_string(), window_index))
            .or_default()
            .push(value);
    }

    /// Drain every completed buffer into [`KeyedWindow`]s, ordered by key and
    /// window index. (In a live stream the caller drains windows older than a
    /// watermark; the batch pipelines here simply drain everything at once.)
    pub fn drain(&mut self) -> Vec<KeyedWindow> {
        let buffers = std::mem::take(&mut self.buffers);
        buffers
            .into_iter()
            .map(|((key, window_index), values)| {
                let window_start = window_index * self.window_seconds;
                let hour_of_day = ((window_start / 3600) % 24) as u32;
                let day_of_week = ((window_start / 86_400) % 7) as u32;
                KeyedWindow {
                    key,
                    window_index,
                    hour_of_day,
                    day_of_week,
                    values,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_fall_into_hourly_windows() {
        let mut w = TumblingWindower::new(3600);
        w.observe("fridge", 0, 100.0);
        w.observe("fridge", 1800, 110.0);
        w.observe("fridge", 3600, 200.0);
        w.observe("tv", 10, 50.0);
        let windows = w.drain();
        assert_eq!(windows.len(), 3);
        let fridge_first = windows
            .iter()
            .find(|win| win.key == "fridge" && win.window_index == 0)
            .unwrap();
        assert_eq!(fridge_first.values, vec![100.0, 110.0]);
        let fridge_second = windows
            .iter()
            .find(|win| win.key == "fridge" && win.window_index == 1)
            .unwrap();
        assert_eq!(fridge_second.values, vec![200.0]);
    }

    #[test]
    fn time_attributes_are_derived_from_window_start() {
        let mut w = TumblingWindower::new(3600);
        // 1 day + 13 hours in.
        let ts = 86_400 + 13 * 3600 + 120;
        w.observe("a", ts, 1.0);
        let windows = w.drain();
        assert_eq!(windows[0].hour_of_day, 13);
        assert_eq!(windows[0].day_of_week, 1);
    }

    #[test]
    fn drain_empties_state() {
        let mut w = TumblingWindower::new(60);
        w.observe("a", 0, 1.0);
        assert_eq!(w.buffers.len(), 1);
        let drained = w.drain();
        assert_eq!(drained.len(), 1);
        assert_eq!(w.buffers.len(), 0);
        assert!(w.drain().is_empty());
    }

    #[test]
    fn windows_are_ordered_by_key_then_index() {
        let mut w = TumblingWindower::new(10);
        w.observe("b", 25, 1.0);
        w.observe("a", 5, 2.0);
        w.observe("a", 15, 3.0);
        let windows = w.drain();
        assert_eq!(windows[0].key, "a");
        assert_eq!(windows[0].window_index, 0);
        assert_eq!(windows[1].key, "a");
        assert_eq!(windows[1].window_index, 1);
        assert_eq!(windows[2].key, "b");
    }

    #[test]
    #[should_panic(expected = "window length must be positive")]
    fn zero_window_panics() {
        let _ = TumblingWindower::new(0);
    }
}
