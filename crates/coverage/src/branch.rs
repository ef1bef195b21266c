//! Branch identifiers and the registry that names them.

use std::collections::HashMap;
use std::fmt;

/// Identifier of a single instrumented branch edge inside one target.
///
/// The analogue of a SanitizerCoverage guard index: dense, zero-based and
/// stable for the lifetime of the target that registered it. Branch IDs from
/// different targets live in different ID spaces and must not be mixed; the
/// campaign layer keys coverage data by target name to prevent that.
///
/// # Examples
///
/// ```
/// use cmfuzz_coverage::BranchRegistry;
///
/// let mut registry = BranchRegistry::new();
/// let id = registry.register("mqtt::connect#auth");
/// assert_eq!(id.index(), 0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchId(u32);

impl BranchId {
    /// Creates a branch ID from a raw dense index.
    ///
    /// Prefer [`BranchRegistry::register`]; this constructor exists for
    /// fixed-layout targets that compute their ID space statically.
    #[must_use]
    pub const fn from_index(index: u32) -> Self {
        BranchId(index)
    }

    /// Returns the dense zero-based index of this branch.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Display for BranchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "branch#{}", self.0)
    }
}

impl From<BranchId> for u32 {
    fn from(id: BranchId) -> Self {
        id.0
    }
}

/// Interner mapping human-readable branch names to dense [`BranchId`]s.
///
/// Protocol targets register every branch they instrument at construction
/// time (`"module::function#case"` by convention) so that fault reports and
/// debugging output can name the code location, mirroring how the paper maps
/// guard IDs back to source locations through debug info.
///
/// # Examples
///
/// ```
/// use cmfuzz_coverage::BranchRegistry;
///
/// let mut registry = BranchRegistry::new();
/// let a = registry.register("coap::options#delta_ext");
/// let again = registry.register("coap::options#delta_ext");
/// assert_eq!(a, again, "registration is idempotent per name");
/// assert_eq!(registry.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BranchRegistry {
    names: Vec<String>,
    by_name: HashMap<String, BranchId>,
}

impl BranchRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `name`, returning its ID; idempotent for repeated names.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` distinct branches are registered,
    /// which no simulated target approaches.
    pub fn register(&mut self, name: &str) -> BranchId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let index = u32::try_from(self.names.len()).expect("branch ID space exhausted");
        let id = BranchId(index);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Returns the name registered for `id`, if any.
    #[must_use]
    pub fn name(&self, id: BranchId) -> Option<&str> {
        self.names.get(id.0 as usize).map(String::as_str)
    }

    /// Returns the ID registered for `name`, if any.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<BranchId> {
        self.by_name.get(name).copied()
    }

    /// Number of distinct branches registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether no branches have been registered yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(id, name)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (BranchId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (BranchId(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_assigns_dense_ids() {
        let mut r = BranchRegistry::new();
        let a = r.register("a");
        let b = r.register("b");
        let c = r.register("c");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(c.index(), 2);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn register_is_idempotent() {
        let mut r = BranchRegistry::new();
        let a1 = r.register("x");
        let a2 = r.register("x");
        assert_eq!(a1, a2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn lookup_and_name_round_trip() {
        let mut r = BranchRegistry::new();
        let id = r.register("mqtt::publish#qos2");
        assert_eq!(r.lookup("mqtt::publish#qos2"), Some(id));
        assert_eq!(r.name(id), Some("mqtt::publish#qos2"));
        assert_eq!(r.lookup("missing"), None);
        assert_eq!(r.name(BranchId::from_index(99)), None);
    }

    #[test]
    fn iter_yields_registration_order() {
        let mut r = BranchRegistry::new();
        r.register("one");
        r.register("two");
        let collected: Vec<_> = r.iter().map(|(id, n)| (id.index(), n.to_owned())).collect();
        assert_eq!(
            collected,
            vec![(0, "one".to_owned()), (1, "two".to_owned())]
        );
    }

    #[test]
    fn display_formats_index() {
        assert_eq!(BranchId::from_index(7).to_string(), "branch#7");
    }

    #[test]
    fn branch_id_converts_to_u32() {
        let id = BranchId::from_index(41);
        assert_eq!(u32::from(id), 41);
    }

    #[test]
    fn empty_registry_reports_empty() {
        let r = BranchRegistry::new();
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
