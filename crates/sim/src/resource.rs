//! Named FIFO resources.

use std::fmt;

/// Identifies a resource registered with a [`ResourcePool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub(crate) usize);

impl ResourceId {
    /// The raw index (stable for the lifetime of the pool).
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ResourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "res#{}", self.0)
    }
}

/// A registry of named, single-server FIFO resources.
///
/// Each resource executes one task at a time; queued tasks run in the
/// order they became ready. Names are free-form but conventionally
/// `"{device}.{function}"`, e.g. `"gpu3.compute"`, `"gpu3.h2d"`,
/// `"fabric"`, `"host.staging"`.
#[derive(Debug, Default, Clone)]
pub struct ResourcePool {
    names: Vec<String>,
}

impl ResourcePool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a resource, returning its id.
    pub fn add(&mut self, name: impl Into<String>) -> ResourceId {
        self.names.push(name.into());
        ResourceId(self.names.len() - 1)
    }

    /// Number of registered resources.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Name of a resource.
    pub fn name(&self, id: ResourceId) -> &str {
        &self.names[id.0]
    }

    /// The id at a raw index (ids are assigned densely in registration
    /// order, so this is the inverse of [`ResourceId::index`]). Panics
    /// when out of range.
    pub fn id(&self, index: usize) -> ResourceId {
        assert!(index < self.names.len(), "resource index {index} out of range");
        ResourceId(index)
    }

    /// Find a resource by exact name.
    pub fn find(&self, name: &str) -> Option<ResourceId> {
        self.names.iter().position(|n| n == name).map(ResourceId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut pool = ResourcePool::new();
        let a = pool.add("gpu0.compute");
        let b = pool.add("gpu0.h2d");
        assert_eq!(pool.len(), 2);
        assert_ne!(a, b);
        assert_eq!(pool.name(a), "gpu0.compute");
        assert_eq!(pool.find("gpu0.h2d"), Some(b));
        assert_eq!(pool.find("nope"), None);
    }

    #[test]
    fn ids_are_stable_indices() {
        let mut pool = ResourcePool::new();
        for i in 0..10 {
            let id = pool.add(format!("r{i}"));
            assert_eq!(id.index(), i);
        }
    }
}
