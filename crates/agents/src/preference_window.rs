//! The provider's private, preference-based satisfaction windows.
//!
//! A provider's preference for a query depends on the query's class alone
//! and never changes after construction, so its private tracker only ever
//! records one of three values: its preference for Light queries, for
//! Heavy queries, or indifference for any custom class. [`PreferenceWindow`]
//! therefore stores one byte per remembered query — a class code — instead
//! of an `f64`, and replays the exact unit-space values from a fixed table
//! whenever a running sum is updated or the strict satisfaction is read.
//! The sums see the same additions and subtractions in the same order as
//! a [`sqlb_satisfaction::ProviderTracker`] fed `Intention::new(pref)`, so
//! every reading is bit-identical to it (pinned by the agent's tests).

use sqlb_types::{Intention, QueryClass};

use crate::provider::ProviderConfig;

/// Code of a Light query: index 0 of the value table.
const LIGHT: u8 = 0;
/// Code of a Heavy query: index 1 of the value table.
const HEAVY: u8 = 1;
/// Code of a custom-class query, which the provider is indifferent to:
/// index 2 of the value table.
const NEUTRAL: u8 = 2;
/// Flag set on a proposal-ring code when the query was performed.
const PERFORMED: u8 = 0x80;

/// The table index of a code, with the performed flag stripped.
#[inline]
fn class_index(code: u8) -> usize {
    (code & !PERFORMED) as usize
}

/// A bounded FIFO of class codes with a running sum of their table values,
/// maintained in the subtract-then-add order of an evict-and-push memory.
#[derive(Debug, Clone)]
struct CodeRing {
    /// Grows with the fill up to `capacity`, then becomes a ring whose
    /// oldest entry is at `head` (0 while filling).
    codes: Vec<u8>,
    head: usize,
    capacity: usize,
    sum: f64,
}

impl CodeRing {
    fn new(capacity: usize) -> Self {
        CodeRing {
            codes: Vec::new(),
            head: 0,
            capacity,
            sum: 0.0,
        }
    }

    fn push(&mut self, code: u8, values: &[f64; 3]) {
        if self.codes.len() == self.capacity {
            let slot = &mut self.codes[self.head];
            self.sum -= values[class_index(*slot)];
            *slot = code;
            self.head += 1;
            if self.head == self.capacity {
                self.head = 0;
            }
        } else {
            self.codes.push(code);
        }
        self.sum += values[class_index(code)];
    }

    fn mean_or(&self, initial: f64) -> f64 {
        if self.codes.is_empty() {
            initial
        } else {
            self.sum / self.codes.len() as f64
        }
    }

    /// The remembered codes, oldest first.
    fn oldest_first(&self) -> impl Iterator<Item = u8> + '_ {
        let (wrapped, oldest) = self.codes.split_at(self.head);
        oldest.iter().chain(wrapped).copied()
    }
}

/// A provider's preference-based adequation and satisfaction windows
/// (Definitions 4–5 over preferences), one byte per remembered query.
///
/// Construction allocates nothing: both rings grow with the fill, like the
/// windows of [`sqlb_satisfaction::ProviderTracker`].
#[derive(Debug, Clone)]
pub(crate) struct PreferenceWindow {
    /// Unit-space value of each class code: `Intention::new(prf).to_unit()`
    /// for Light and Heavy, and the image of a neutral preference for
    /// custom classes.
    values: [f64; 3],
    /// Codes of the last proposed queries, with [`PERFORMED`] set on the
    /// performed ones (Definition 4, and the strict Definition 5).
    proposed: CodeRing,
    /// Codes of the last performed queries (Table 2's `proSatSize`).
    performed: CodeRing,
    initial: f64,
}

impl PreferenceWindow {
    /// Creates empty windows for a provider with the given Light and Heavy
    /// preferences, sized by `config`'s proposal and performed-query
    /// memories and reporting its initial satisfaction until observations
    /// exist.
    pub(crate) fn new(class_preferences: [f64; 2], config: &ProviderConfig) -> Self {
        assert!(
            config.proposed_memory > 0,
            "proposed window capacity must be positive"
        );
        assert!(
            config.performed_memory > 0,
            "interaction memory capacity must be positive"
        );
        let unit = |preference: f64| Intention::new(preference).to_unit().value();
        let [light, heavy] = class_preferences;
        PreferenceWindow {
            values: [unit(light), unit(heavy), unit(0.0)],
            proposed: CodeRing::new(config.proposed_memory),
            performed: CodeRing::new(config.performed_memory),
            initial: config.initial_satisfaction,
        }
    }

    /// Records a query of `class` proposed to the provider, and whether it
    /// was allocated to it.
    pub(crate) fn record(&mut self, class: QueryClass, performed: bool) {
        let code = match class {
            QueryClass::Light => LIGHT,
            QueryClass::Heavy => HEAVY,
            QueryClass::Custom(_) => NEUTRAL,
        };
        if performed {
            self.proposed.push(code | PERFORMED, &self.values);
            self.performed.push(code, &self.values);
        } else {
            self.proposed.push(code, &self.values);
        }
    }

    /// Preference-based adequation `δa(p)` (Definition 4).
    pub(crate) fn adequation(&self) -> f64 {
        self.proposed.mean_or(self.initial)
    }

    /// Preference-based satisfaction over the last `k_performed` performed
    /// queries (Table 2 semantics).
    pub(crate) fn satisfaction(&self) -> f64 {
        self.performed.mean_or(self.initial)
    }

    /// Preference-based satisfaction computed strictly as Definition 5:
    /// the mean over the performed subset of the proposal window (0 when
    /// it is empty, the initial value before any proposal). The additions
    /// run oldest first from `+0.0`, as the tracker's do.
    pub(crate) fn satisfaction_strict(&self) -> f64 {
        if self.proposed.codes.is_empty() {
            return self.initial;
        }
        let mut sum = 0.0;
        let mut count = 0usize;
        for code in self.proposed.oldest_first() {
            if code & PERFORMED != 0 {
                sum += self.values[class_index(code)];
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            sum / count as f64
        }
    }
}
