//! FIFO resources, identified by dense ids.

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

/// A registry of single-server FIFO resources.
///
/// Each resource executes one task at a time; queued tasks run in the
/// order they became ready. Resources are known by their id alone:
/// ids are handed out densely in registration order, so a caller that
/// registers its resources in a fixed order (say, every GPU's compute
/// engine first) can rely on their indices.
#[derive(Debug, Default, Clone)]
pub struct ResourcePool {
    len: usize,
}

impl ResourcePool {
    /// Create an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a resource, returning its id.
    pub fn add(&mut self) -> ResourceId {
        self.len += 1;
        ResourceId(self.len - 1)
    }

    /// Number of registered resources.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The id at a raw index (ids are assigned densely in registration
    /// order, so this is the inverse of [`ResourceId::index`]). Panics
    /// when out of range.
    pub fn id(&self, index: usize) -> ResourceId {
        assert!(index < self.len, "resource index {index} out of range");
        ResourceId(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_lookup() {
        let mut pool = ResourcePool::new();
        assert!(pool.is_empty());
        let a = pool.add();
        let b = pool.add();
        assert_eq!(pool.len(), 2);
        assert_ne!(a, b);
        assert_eq!(pool.id(1), b);
    }

    #[test]
    fn ids_are_stable_indices() {
        let mut pool = ResourcePool::new();
        for i in 0..10 {
            let id = pool.add();
            assert_eq!(id.index(), i);
        }
    }
}
