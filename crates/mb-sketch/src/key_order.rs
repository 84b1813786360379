//! Hash maps and sets that iterate in key order.
//!
//! A `std` hash table iterates in its hasher's order, so anything built by
//! walking one can change with the hasher, the capacity or the insertion
//! history. [`KeyOrderMap`] and [`KeyOrderSet`] keep the table, and its
//! hasher, for lookups and updates, and walk it only sorted by key. The
//! three unordered walks some callers need (a drain whose order decides a
//! tie, an in-place rescale, a scan whose result does not depend on order)
//! are methods of their own that `clippy.toml` forbids, so every call names
//! its reason in an `#[expect]`. `clippy.toml` forbids the raw
//! `std::collections::{HashMap, HashSet}` too.
#![expect(
    clippy::disallowed_types,
    reason = "the std tables live here, behind key-order iteration"
)]

use std::borrow::Borrow;
use std::collections::hash_map::{Drain, Entry, Iter, RandomState, ValuesMut};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasher, Hash};

/// A hash map whose only ordered walk is by key.
#[derive(Debug, Clone)]
pub struct KeyOrderMap<K, V, S = RandomState>(HashMap<K, V, S>);

/// A hash set whose only walk is by key.
#[derive(Debug, Clone)]
pub struct KeyOrderSet<K, S = RandomState>(HashSet<K, S>);

impl<K, V, S: Default> Default for KeyOrderMap<K, V, S> {
    #[inline]
    fn default() -> Self {
        KeyOrderMap(HashMap::default())
    }
}

impl<K, V, S> KeyOrderMap<K, V, S> {
    /// An empty map with room for `capacity` entries, hashing with `hasher`.
    #[inline]
    pub(crate) fn with_capacity_and_hasher(capacity: usize, hasher: S) -> Self {
        KeyOrderMap(HashMap::with_capacity_and_hasher(capacity, hasher))
    }

    /// The number of entries.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Every entry, in hash order. Only for a walk whose result does not
    /// depend on order; `clippy.toml` asks each call for its reason.
    #[inline]
    pub(crate) fn iter_unordered(&self) -> Iter<'_, K, V> {
        self.0.iter()
    }

    /// Every value, mutably, in hash order. Only for an update of each value
    /// on its own; `clippy.toml` asks each call for its reason.
    #[inline]
    pub(crate) fn values_mut_unordered(&mut self) -> ValuesMut<'_, K, V> {
        self.0.values_mut()
    }

    /// Empty the map, yielding its entries in hash order. `clippy.toml` asks
    /// each call for its reason.
    #[inline]
    pub(crate) fn drain_unordered(&mut self) -> Drain<'_, K, V> {
        self.0.drain()
    }
}

impl<K: Eq + Hash, V, S: BuildHasher> KeyOrderMap<K, V, S> {
    /// The value under `key`.
    #[inline]
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.get(key)
    }

    /// The value under `key`, mutably.
    #[inline]
    pub(crate) fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.get_mut(key)
    }

    /// Put `value` under `key`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// Take the entry under `key` out of the map.
    #[inline]
    pub(crate) fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.remove(key)
    }

    /// The entry under `key`, for in-place insertion or update.
    #[inline]
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// Every entry, sorted by key.
    pub fn sorted(&self) -> Vec<(&K, &V)>
    where
        K: Ord,
    {
        let mut entries: Vec<(&K, &V)> = self.0.iter().collect();
        entries.sort_unstable_by(|a, b| a.0.cmp(b.0));
        entries
    }
}

impl<K: Eq + Hash, V, S: BuildHasher + Default> FromIterator<(K, V)> for KeyOrderMap<K, V, S> {
    #[inline]
    fn from_iter<I: IntoIterator<Item = (K, V)>>(iter: I) -> Self {
        KeyOrderMap(HashMap::from_iter(iter))
    }
}

impl<K, S: Default> Default for KeyOrderSet<K, S> {
    #[inline]
    fn default() -> Self {
        KeyOrderSet(HashSet::default())
    }
}

impl<K: Eq + Hash, S: BuildHasher> KeyOrderSet<K, S> {
    /// Whether `key` is in the set.
    #[inline]
    pub fn contains<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.0.contains(key)
    }

    /// Add `key`, returning whether it was new.
    #[inline]
    pub fn insert(&mut self, key: K) -> bool {
        self.0.insert(key)
    }

    /// The members, sorted.
    pub fn into_sorted(self) -> Vec<K>
    where
        K: Ord,
    {
        let mut keys: Vec<K> = self.0.into_iter().collect();
        keys.sort_unstable();
        keys
    }
}

impl<K: Eq + Hash, S: BuildHasher + Default> FromIterator<K> for KeyOrderSet<K, S> {
    #[inline]
    fn from_iter<I: IntoIterator<Item = K>>(iter: I) -> Self {
        KeyOrderSet(HashSet::from_iter(iter))
    }
}
