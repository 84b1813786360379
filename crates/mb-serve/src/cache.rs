//! The shared, epoch-versioned model cache.
//!
//! One slot per [`Fingerprint`]. The first requester trains the model (off
//! the slot lock — training can take arbitrarily long) and publishes an
//! immutable [`ModelSnapshot`] at epoch 1; concurrent requesters for the
//! same fingerprint block on the slot's condvar and then share the same
//! `Arc`. A retrain publishes the *next* epoch by swapping the slot's
//! `Arc` — readers holding the previous snapshot are never stalled or
//! invalidated, the multiversion discipline (readers against an immutable
//! snapshot, writers installing the next one) that keeps concurrency from
//! ever changing a report.

use crate::fingerprint::Fingerprint;
use crate::lock;
use macrobase_core::executor::FittedModel;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// An immutable fitted model stamped with the epoch that published it.
/// Everything a scorer needs is frozen at publication: epochs never mutate.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Publication epoch, starting at 1 for the first training.
    pub epoch: u64,
    /// The fitted classifier + threshold.
    pub model: FittedModel,
}

/// How a cache lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// This requester trained the model (or arrived while no model existed
    /// and won the training slot).
    Miss,
    /// An already-published snapshot was reused.
    Hit,
}

enum SlotState {
    /// A requester is training; everyone else waits on the condvar.
    Training,
    /// Published and shareable. Replaced wholesale on retrain.
    Ready(Arc<ModelSnapshot>),
    /// Training failed. Requesters already waiting on the slot get the
    /// error; the slot has left the map by then, so the next requester
    /// trains again — a failure may be transient (a panic, an injected
    /// fault), and one must not poison a fingerprint for the life of the
    /// process.
    Failed(String),
}

struct Slot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

/// The first trainer's obligation to its waiters: whatever `state` holds
/// when this drops is published and the condvar notified. It is created
/// holding `Failed("training panicked")`, so a `train()` that unwinds still
/// wakes every same-fingerprint requester — to an error — instead of leaving
/// the slot `Training` and them parked forever. A failed slot is then taken
/// out of the map, so the failure is not cached.
struct Publish<'a> {
    cache: &'a ModelCache,
    fingerprint: Fingerprint,
    slot: &'a Arc<Slot>,
    state: SlotState,
}

impl Drop for Publish<'_> {
    fn drop(&mut self) {
        let failed = matches!(self.state, SlotState::Failed(_));
        *lock(&self.slot.state) = std::mem::replace(&mut self.state, SlotState::Training);
        self.slot.cond.notify_all();
        if failed {
            let mut slots = lock(&self.cache.slots);
            if slots
                .get(&self.fingerprint)
                .is_some_and(|slot| Arc::ptr_eq(slot, self.slot))
            {
                slots.remove(&self.fingerprint);
            }
        }
    }
}

/// The cache proper: fingerprint-keyed slots.
pub struct ModelCache {
    slots: Mutex<HashMap<Fingerprint, Arc<Slot>>>,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        ModelCache {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Fetch the current snapshot for `fingerprint`, training it with
    /// `train` if no slot exists yet. Exactly one caller at a time runs
    /// `train` for a fingerprint; everyone else blocks until publication and
    /// shares the result — a model, or the error, after which the next
    /// caller trains again.
    pub fn get_or_train<F>(
        &self,
        fingerprint: Fingerprint,
        train: F,
    ) -> Result<(Arc<ModelSnapshot>, CacheOutcome), String>
    where
        F: FnOnce() -> Result<FittedModel, String>,
    {
        let (slot, trainer) = {
            let mut slots = lock(&self.slots);
            match slots.get(&fingerprint) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Training),
                        cond: Condvar::new(),
                    });
                    slots.insert(fingerprint, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };

        if trainer {
            // Train off every lock: other fingerprints stay available and
            // same-fingerprint requesters queue on the condvar.
            let mut publish = Publish {
                cache: self,
                fingerprint,
                slot: &slot,
                state: SlotState::Failed("training panicked".to_string()),
            };
            return match train() {
                Ok(model) => {
                    let snapshot = Arc::new(ModelSnapshot { epoch: 1, model });
                    publish.state = SlotState::Ready(Arc::clone(&snapshot));
                    Ok((snapshot, CacheOutcome::Miss))
                }
                Err(message) => {
                    publish.state = SlotState::Failed(message.clone());
                    Err(message)
                }
            };
        }

        let mut state = lock(&slot.state);
        loop {
            match &*state {
                SlotState::Ready(snapshot) => {
                    return Ok((Arc::clone(snapshot), CacheOutcome::Hit));
                }
                SlotState::Failed(message) => return Err(message.clone()),
                SlotState::Training => {
                    state = slot
                        .cond
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
            }
        }
    }

    /// Current snapshot for `fingerprint`, if one has been published.
    /// Never blocks on an in-flight training.
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<Arc<ModelSnapshot>> {
        let slot = {
            let slots = lock(&self.slots);
            slots.get(&fingerprint).map(Arc::clone)?
        };
        let state = lock(&slot.state);
        match &*state {
            SlotState::Ready(snapshot) => Some(Arc::clone(snapshot)),
            _ => None,
        }
    }

    /// Train the next epoch for an already-published fingerprint and swap
    /// it in. Readers holding the previous `Arc` are untouched; requesters
    /// arriving after the swap get the new epoch. Returns the published
    /// epoch.
    pub fn retrain<F>(&self, fingerprint: Fingerprint, train: F) -> Result<u64, String>
    where
        F: FnOnce() -> Result<FittedModel, String>,
    {
        let slot = {
            let slots = lock(&self.slots);
            slots
                .get(&fingerprint)
                .map(Arc::clone)
                .ok_or_else(|| "no model published for this fingerprint".to_string())?
        };
        let current_epoch = {
            let state = lock(&slot.state);
            match &*state {
                SlotState::Ready(snapshot) => snapshot.epoch,
                SlotState::Training => {
                    return Err("model is still training its first epoch".to_string())
                }
                SlotState::Failed(message) => return Err(message.clone()),
            }
        };
        // Train with no lock held: in-flight scorers keep reading the
        // current snapshot for the entire duration — and for good if
        // `train` fails or unwinds, since nothing is written before it
        // returns a model.
        let model = train()?;
        let mut state = lock(&slot.state);
        let epoch = match &*state {
            // Concurrent retrains may have advanced the epoch while this
            // one trained; publish after the newest.
            SlotState::Ready(snapshot) => snapshot.epoch.max(current_epoch) + 1,
            _ => current_epoch + 1,
        };
        *state = SlotState::Ready(Arc::new(ModelSnapshot { epoch, model }));
        slot.cond.notify_all();
        Ok(epoch)
    }
}

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macrobase_core::query::MdpQuery;
    use macrobase_core::types::Point;

    fn training_batch() -> Vec<Point> {
        (0..500)
            .map(|i| Point::simple(10.0 + (i % 7) as f64 * 0.2, format!("d{}", i % 10)))
            .collect()
    }

    fn fingerprint_and_model() -> (Fingerprint, Vec<Point>) {
        let points = training_batch();
        let query = MdpQuery::with_defaults();
        let fp = Fingerprint::compute(query.analysis(), &points);
        (fp, points)
    }

    #[test]
    fn first_requester_trains_and_later_requesters_hit() {
        let cache = ModelCache::new();
        let (fp, points) = fingerprint_and_model();
        let query = MdpQuery::with_defaults();

        let (first, outcome) = cache
            .get_or_train(fp, || query.train(&points).map_err(|e| e.to_string()))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(first.epoch, 1);

        let (second, outcome) = cache
            .get_or_train(fp, || panic!("must not retrain a cached fingerprint"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn retrain_publishes_the_next_epoch_without_touching_old_readers() {
        let cache = ModelCache::new();
        let (fp, points) = fingerprint_and_model();
        let query = MdpQuery::with_defaults();

        let (old, _) = cache
            .get_or_train(fp, || query.train(&points).map_err(|e| e.to_string()))
            .unwrap();
        let epoch = cache
            .retrain(fp, || query.train(&points).map_err(|e| e.to_string()))
            .unwrap();
        assert_eq!(epoch, 2);
        // The held snapshot is immutable: still epoch 1.
        assert_eq!(old.epoch, 1);
        // New requesters see the new epoch.
        let current = cache.peek(fp).unwrap();
        assert_eq!(current.epoch, 2);
        assert!(!Arc::ptr_eq(&old, &current));
    }

    #[test]
    fn a_failed_training_is_typed_and_the_next_request_trains_again() {
        let cache = ModelCache::new();
        let (fp, points) = fingerprint_and_model();
        let query = MdpQuery::with_defaults();
        let trainings = std::cell::Cell::new(0);
        let flaky = || {
            trainings.set(trainings.get() + 1);
            if trainings.get() == 1 {
                Err("boom".to_string())
            } else {
                query.train(&points).map_err(|e| e.to_string())
            }
        };
        assert_eq!(cache.get_or_train(fp, flaky).unwrap_err(), "boom");
        assert!(cache.peek(fp).is_none());
        let (snapshot, outcome) = cache.get_or_train(fp, flaky).unwrap();
        assert_eq!((snapshot.epoch, outcome), (1, CacheOutcome::Miss));
        assert_eq!(trainings.get(), 2);
        let (_, outcome) = cache
            .get_or_train(fp, || panic!("must not retrain a cached fingerprint"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
    }

    #[test]
    fn a_panicking_trainer_fails_the_slot_and_wakes_its_waiters() {
        use std::sync::mpsc;
        use std::time::Duration;

        let cache = Arc::new(ModelCache::new());
        let (fp, points) = fingerprint_and_model();
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (waiter_tx, waiter_rx) = mpsc::channel();

        let trainer = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                cache.get_or_train(fp, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    panic!("estimator blew up")
                })
            })
        };
        // The slot is `Training` from here until the trainer is released.
        started_rx.recv().unwrap();
        // Not joined: a waiter that is never woken must fail this test by
        // the timeout below, not hang it.
        let waiter_cache = Arc::clone(&cache);
        std::thread::spawn(move || {
            let outcome =
                waiter_cache.get_or_train(fp, || panic!("the slot already has a trainer"));
            waiter_tx.send(outcome.map(|_| ())).unwrap();
        });
        // Release the trainer only once the waiter holds the slot (the map,
        // the trainer, this test and the waiter each hold one reference): a
        // requester that arrives after the failed slot left the map trains
        // afresh instead of waiting.
        let slot = Arc::clone(lock(&cache.slots).get(&fp).expect("the training slot"));
        while Arc::strong_count(&slot) < 4 {
            std::thread::yield_now();
        }
        drop(slot);
        release_tx.send(()).unwrap();
        assert!(trainer.join().is_err(), "the trainer's panic propagates to it");

        // Whether the waiter parked before or after the unwind, it must come
        // back with the failure — before the guard it parked forever.
        let waited = waiter_rx.recv_timeout(Duration::from_secs(10));
        assert_eq!(waited, Ok(Err("training panicked".to_string())));
        assert!(cache.peek(fp).is_none());

        // An unrelated fingerprint still trains, and then hits.
        let query = MdpQuery::with_defaults();
        let other_points: Vec<Point> = points.iter().take(400).cloned().collect();
        let other = Fingerprint::compute(query.analysis(), &other_points);
        assert_ne!(other, fp);
        let (_, outcome) = cache
            .get_or_train(other, || query.train(&other_points).map_err(|e| e.to_string()))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (_, outcome) = cache
            .get_or_train(other, || panic!("must not retrain a cached fingerprint"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
    }

    #[test]
    fn a_panicking_retrain_leaves_the_published_epoch_readable() {
        let cache = ModelCache::new();
        let (fp, points) = fingerprint_and_model();
        let query = MdpQuery::with_defaults();
        cache
            .get_or_train(fp, || query.train(&points).map_err(|e| e.to_string()))
            .unwrap();
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.retrain(fp, || panic!("estimator blew up"))
        }));
        assert!(unwound.is_err());
        assert_eq!(cache.peek(fp).unwrap().epoch, 1);
        let (snapshot, outcome) = cache
            .get_or_train(fp, || panic!("must not retrain a cached fingerprint"))
            .unwrap();
        assert_eq!((snapshot.epoch, outcome), (1, CacheOutcome::Hit));
        // And the slot still takes the next epoch.
        let epoch = cache
            .retrain(fp, || query.train(&points).map_err(|e| e.to_string()))
            .unwrap();
        assert_eq!(epoch, 2);
    }
}
