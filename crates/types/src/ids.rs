//! Identifiers for the entities of the mediation system.
//!
//! The paper's system consists of a mediator `m`, a set of consumers `C` and
//! a set of providers `P` (Section 2). Entities are identified by small
//! integer identifiers so that they can be used as direct indexes into dense
//! per-participant tables (preference matrices, satisfaction trackers, ...).

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u32);

        impl $name {
            /// Creates a new identifier from a raw index.
            #[inline]
            pub const fn new(raw: u32) -> Self {
                Self(raw)
            }

            /// Returns the raw numeric value of the identifier.
            #[inline]
            pub const fn raw(self) -> u32 {
                self.0
            }

            /// Returns the identifier as a `usize`, suitable for indexing
            /// dense per-entity tables.
            #[inline]
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<u32> for $name {
            fn from(raw: u32) -> Self {
                Self(raw)
            }
        }

        impl From<$name> for u32 {
            fn from(id: $name) -> Self {
                id.0
            }
        }

        impl From<$name> for usize {
            fn from(id: $name) -> Self {
                id.index()
            }
        }
    };
}

id_type!(
    /// Identifier of a consumer `c ∈ C`.
    ConsumerId,
    "c"
);
id_type!(
    /// Identifier of a provider `p ∈ P`.
    ProviderId,
    "p"
);
id_type!(
    /// Identifier of a query issued by a consumer.
    QueryId,
    "q"
);
id_type!(
    /// Identifier of a mediator. The paper's evaluation uses a single
    /// mediator, but the model allows several competing mediators.
    MediatorId,
    "m"
);

/// An entity that can participate in the system either as a consumer, a
/// provider, or both ("These sets are not necessarily disjoint, an entity may
/// play more than one role", Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParticipantId {
    /// A consumer participant.
    Consumer(ConsumerId),
    /// A provider participant.
    Provider(ProviderId),
}

impl ParticipantId {
    /// Returns the consumer identifier if this participant is a consumer.
    pub fn as_consumer(self) -> Option<ConsumerId> {
        match self {
            ParticipantId::Consumer(c) => Some(c),
            ParticipantId::Provider(_) => None,
        }
    }

    /// Returns the provider identifier if this participant is a provider.
    pub fn as_provider(self) -> Option<ProviderId> {
        match self {
            ParticipantId::Provider(p) => Some(p),
            ParticipantId::Consumer(_) => None,
        }
    }

    /// Returns `true` when this participant is a consumer.
    pub fn is_consumer(self) -> bool {
        matches!(self, ParticipantId::Consumer(_))
    }

    /// Returns `true` when this participant is a provider.
    pub fn is_provider(self) -> bool {
        matches!(self, ParticipantId::Provider(_))
    }
}

impl fmt::Display for ParticipantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParticipantId::Consumer(c) => write!(f, "{c}"),
            ParticipantId::Provider(p) => write!(f, "{p}"),
        }
    }
}

impl From<ConsumerId> for ParticipantId {
    fn from(c: ConsumerId) -> Self {
        ParticipantId::Consumer(c)
    }
}

impl From<ProviderId> for ParticipantId {
    fn from(p: ProviderId) -> Self {
        ParticipantId::Provider(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn ids_display_with_prefix() {
        assert_eq!(ConsumerId::new(3).to_string(), "c3");
        assert_eq!(ProviderId::new(7).to_string(), "p7");
        assert_eq!(QueryId::new(42).to_string(), "q42");
        assert_eq!(MediatorId::new(0).to_string(), "m0");
    }

    #[test]
    fn ids_round_trip_through_u32() {
        let p = ProviderId::from(9u32);
        assert_eq!(u32::from(p), 9);
        assert_eq!(p.raw(), 9);
        assert_eq!(p.index(), 9usize);
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(ProviderId::new(1));
        set.insert(ProviderId::new(1));
        set.insert(ProviderId::new(2));
        assert_eq!(set.len(), 2);
        assert!(ProviderId::new(1) < ProviderId::new(2));
    }

    #[test]
    fn participant_id_role_accessors() {
        let c: ParticipantId = ConsumerId::new(5).into();
        let p: ParticipantId = ProviderId::new(6).into();
        assert!(c.is_consumer());
        assert!(!c.is_provider());
        assert_eq!(c.as_consumer(), Some(ConsumerId::new(5)));
        assert_eq!(c.as_provider(), None);
        assert!(p.is_provider());
        assert_eq!(p.as_provider(), Some(ProviderId::new(6)));
        assert_eq!(p.as_consumer(), None);
        assert_eq!(c.to_string(), "c5");
        assert_eq!(p.to_string(), "p6");
    }
}
