//! Provider capability declarations.

use sqlb_types::{ProviderId, QueryDescription};
use std::collections::BTreeMap;

/// A capability a provider declares to the mediator: a topic it can handle
/// and the attributes it supports for that topic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capability {
    /// Topic handled by the provider (hierarchical, `/`-separated).
    pub topic: String,
    /// Attributes supported under that topic.
    pub attributes: Vec<String>,
}

impl Capability {
    /// Creates a capability for a topic with no attributes.
    pub fn new(topic: impl Into<String>) -> Self {
        Capability {
            topic: topic.into(),
            attributes: Vec::new(),
        }
    }

    /// Adds a supported attribute and returns the updated capability.
    pub fn with_attribute(mut self, attribute: impl Into<String>) -> Self {
        self.attributes.push(attribute.into());
        self
    }

    /// Returns `true` when this capability covers the given description:
    /// the capability topic is a (path-)prefix of the description topic and
    /// every required attribute is supported.
    pub fn covers(&self, description: &QueryDescription) -> bool {
        let topic_matches = description.topic == self.topic
            || description
                .topic
                .strip_prefix(&self.topic)
                .is_some_and(|rest| rest.starts_with('/'))
            || self.topic.is_empty();
        if !topic_matches {
            return false;
        }
        description
            .attributes
            .iter()
            .all(|required| self.attributes.iter().any(|a| a == required))
    }
}

/// The mediator-side registry of provider capabilities.
#[derive(Debug, Clone, Default)]
pub struct CapabilityRegistry {
    capabilities: BTreeMap<ProviderId, Vec<Capability>>,
}

impl CapabilityRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        CapabilityRegistry {
            capabilities: BTreeMap::new(),
        }
    }

    /// Registers an additional capability for a provider.
    pub fn register(&mut self, provider: ProviderId, capability: Capability) {
        self.capabilities
            .entry(provider)
            .or_default()
            .push(capability);
    }

    /// Removes a provider and all of its capabilities (e.g. when it departs
    /// from the system). Returns `true` if the provider was registered.
    pub fn deregister(&mut self, provider: ProviderId) -> bool {
        self.capabilities.remove(&provider).is_some()
    }

    /// Returns the capabilities declared by a provider.
    pub fn capabilities_of(&self, provider: ProviderId) -> &[Capability] {
        self.capabilities
            .get(&provider)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Returns the providers whose declared capabilities cover the given
    /// description, in ascending identifier order.
    pub fn matching_providers(&self, description: &QueryDescription) -> Vec<ProviderId> {
        self.capabilities
            .iter()
            .filter(|(_, caps)| caps.iter().any(|c| c.covers(description)))
            .map(|(p, _)| *p)
            .collect()
    }

    /// Number of registered providers.
    pub fn len(&self) -> usize {
        self.capabilities.len()
    }

    /// Whether no provider is registered.
    pub fn is_empty(&self) -> bool {
        self.capabilities.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlb_types::QueryClass;

    #[test]
    fn capability_covers_topic_prefixes() {
        let cap = Capability::new("shipping");
        let exact = QueryDescription::with_topic("shipping", QueryClass::Light);
        let nested = QueryDescription::with_topic("shipping/international", QueryClass::Light);
        let sibling = QueryDescription::with_topic("shippingco", QueryClass::Light);
        assert!(cap.covers(&exact));
        assert!(cap.covers(&nested));
        assert!(!cap.covers(&sibling), "prefix must end at a path boundary");
    }

    #[test]
    fn empty_topic_capability_covers_everything() {
        let cap = Capability::new("");
        let d = QueryDescription::with_topic("anything/at/all", QueryClass::Heavy);
        assert!(cap.covers(&d));
    }

    #[test]
    fn capability_checks_required_attributes() {
        let cap = Capability::new("shipping").with_attribute("origin:FR");
        let ok = QueryDescription::with_topic("shipping", QueryClass::Light).attribute("origin:FR");
        let missing =
            QueryDescription::with_topic("shipping", QueryClass::Light).attribute("origin:DE");
        assert!(cap.covers(&ok));
        assert!(!cap.covers(&missing));
    }

    #[test]
    fn registry_register_and_match() {
        let mut r = CapabilityRegistry::new();
        assert!(r.is_empty());
        r.register(ProviderId::new(1), Capability::new("a"));
        r.register(ProviderId::new(0), Capability::new("b"));
        r.register(ProviderId::new(0), Capability::new("a/x"));
        assert_eq!(r.len(), 2);
        assert_eq!(r.capabilities_of(ProviderId::new(0)).len(), 2);

        let d = QueryDescription::with_topic("a/x/deep", QueryClass::Light);
        let matches = r.matching_providers(&d);
        assert_eq!(matches, vec![ProviderId::new(0), ProviderId::new(1)]);
    }

    #[test]
    fn registry_deregister() {
        let mut r = CapabilityRegistry::new();
        r.register(ProviderId::new(0), Capability::new("a"));
        assert!(r.deregister(ProviderId::new(0)));
        assert!(!r.deregister(ProviderId::new(0)));
        let d = QueryDescription::with_topic("a", QueryClass::Light);
        assert!(r.matching_providers(&d).is_empty());
        assert!(r.capabilities_of(ProviderId::new(0)).is_empty());
    }
}
