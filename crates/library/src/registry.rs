//! The element registry: a namespaced library that can merge remote
//! libraries ("if a library is characterized and put on the web in
//! Massachusetts, it can be used for estimates in California").

use std::collections::BTreeMap;
use std::sync::Arc;

use powerplay_json::Json;

use crate::element::{ElementClass, LibraryElement};
use crate::json_io::DecodeElementError;

/// A collection of library elements keyed by their namespaced path.
///
/// ```
/// use powerplay_library::{builtin, Registry};
///
/// let lib = builtin::ucb_library();
/// assert!(lib.get("ucb/multiplier").is_some());
/// assert!(lib.len() > 20);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Registry {
    // Elements are stored behind `Arc` so the evaluation engine can hold
    // shared handles across many plays instead of deep-cloning models.
    elements: BTreeMap<String, Arc<LibraryElement>>,
    // Bumped on every mutation; caches keyed on registry contents (the
    // web layer's compiled-plan cache) include this so a library edit
    // invalidates them without hashing every model.
    generation: u64,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// True when no elements are registered.
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Inserts an element under its own name, replacing any previous
    /// element of that name and returning it.
    pub fn insert(&mut self, element: LibraryElement) -> Option<Arc<LibraryElement>> {
        self.generation += 1;
        self.elements
            .insert(element.name().to_owned(), Arc::new(element))
    }

    /// Removes the element at `name` and returns it. A removal bumps the
    /// generation, so plans compiled against the element recompile.
    pub fn remove(&mut self, name: &str) -> Option<Arc<LibraryElement>> {
        let removed = self.elements.remove(name);
        if removed.is_some() {
            self.generation += 1;
        }
        removed
    }

    /// A version tag that changes on every mutation of this registry
    /// value ([`Self::insert`] / [`Self::remove`] / [`Self::merge`]).
    /// Two generations being equal means the contents have not changed
    /// since; the converse does not hold (a replaced-then-restored
    /// element still bumps it).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Looks an element up by path.
    pub fn get(&self, name: &str) -> Option<&LibraryElement> {
        self.elements.get(name).map(Arc::as_ref)
    }

    /// Looks an element up by path, returning a shared handle that
    /// outlives the registry borrow (what compiled evaluation plans
    /// hold: no per-play deep clone).
    pub fn get_shared(&self, name: &str) -> Option<Arc<LibraryElement>> {
        self.elements.get(name).cloned()
    }

    /// Iterates elements in path order.
    pub fn iter(&self) -> impl Iterator<Item = &LibraryElement> {
        self.elements.values().map(Arc::as_ref)
    }

    /// Element paths, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.elements.keys().map(String::as_str).collect()
    }

    /// Elements of one class, in path order.
    pub fn by_class(&self, class: ElementClass) -> Vec<&LibraryElement> {
        self.iter().filter(|e| e.class() == class).collect()
    }

    /// Namespaces present (the portion of each path before the first
    /// `/`), deduplicated and sorted.
    pub fn namespaces(&self) -> Vec<String> {
        let mut spaces: Vec<String> = self
            .elements
            .keys()
            .map(|k| k.split('/').next().unwrap_or(k).to_owned())
            .collect();
        spaces.dedup();
        spaces
    }

    /// Merges every element of `other` into `self` (later wins), e.g.
    /// after fetching a remote site's library.
    pub fn merge(&mut self, other: Registry) {
        self.generation += 1;
        self.elements.extend(other.elements);
    }

    /// Serializes the whole registry as a JSON array.
    pub fn to_json(&self) -> Json {
        self.iter().map(LibraryElement::to_json).collect()
    }

    /// Decodes a registry from the [`Self::to_json`] representation.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeElementError`] if the document is not an array of
    /// valid elements.
    pub fn from_json(json: &Json) -> Result<Registry, DecodeElementError> {
        let items = json
            .as_array()
            .ok_or_else(|| DecodeElementError::new("registry document must be a JSON array"))?;
        let mut registry = Registry::new();
        for item in items {
            registry.insert(LibraryElement::from_json(item)?);
        }
        Ok(registry)
    }
}

impl FromIterator<LibraryElement> for Registry {
    fn from_iter<I: IntoIterator<Item = LibraryElement>>(iter: I) -> Registry {
        let mut registry = Registry::new();
        for element in iter {
            registry.insert(element);
        }
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::element::{ElementModel, ParamDecl};
    use powerplay_expr::Expr;

    fn elem(name: &str, class: ElementClass) -> LibraryElement {
        LibraryElement::new(
            name,
            class,
            "",
            vec![ParamDecl::new("bits", 8.0, "")],
            ElementModel {
                cap_full: Some(Expr::parse("bits * 10f").unwrap()),
                ..ElementModel::default()
            },
        )
    }

    #[test]
    fn insert_get_replace() {
        let mut r = Registry::new();
        assert!(r.is_empty());
        assert!(r.insert(elem("a/x", ElementClass::Computation)).is_none());
        assert!(r.insert(elem("a/y", ElementClass::Storage)).is_none());
        assert_eq!(r.len(), 2);
        // Replacement returns the old element.
        assert!(r.insert(elem("a/x", ElementClass::Storage)).is_some());
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("a/x").unwrap().class(), ElementClass::Storage);
        assert!(r.get("missing").is_none());
    }

    #[test]
    fn class_filter_and_names() {
        let r: Registry = [
            elem("a/x", ElementClass::Computation),
            elem("a/y", ElementClass::Storage),
            elem("b/z", ElementClass::Computation),
        ]
        .into_iter()
        .collect();
        assert_eq!(r.names(), ["a/x", "a/y", "b/z"]);
        assert_eq!(r.by_class(ElementClass::Computation).len(), 2);
        assert_eq!(r.namespaces(), ["a", "b"]);
    }

    #[test]
    fn merge_prefers_incoming() {
        let mut local: Registry = [elem("a/x", ElementClass::Computation)]
            .into_iter()
            .collect();
        let remote: Registry = [
            elem("a/x", ElementClass::Storage),
            elem("r/new", ElementClass::Analog),
        ]
        .into_iter()
        .collect();
        local.merge(remote);
        assert_eq!(local.len(), 2);
        assert_eq!(local.get("a/x").unwrap().class(), ElementClass::Storage);
    }

    #[test]
    fn json_roundtrip() {
        let r: Registry = [
            elem("a/x", ElementClass::Computation),
            elem("a/y", ElementClass::Storage),
        ]
        .into_iter()
        .collect();
        let decoded = Registry::from_json(&r.to_json()).unwrap();
        assert_eq!(decoded.names(), r.names());
        assert_eq!(decoded.get("a/x"), r.get("a/x"));
    }

    #[test]
    fn shared_handles_alias_storage() {
        let mut r = Registry::new();
        r.insert(elem("a/x", ElementClass::Computation));
        let h1 = r.get_shared("a/x").unwrap();
        let h2 = r.get_shared("a/x").unwrap();
        assert!(std::sync::Arc::ptr_eq(&h1, &h2));
        assert!(std::ptr::eq(h1.as_ref(), r.get("a/x").unwrap()));
        assert!(r.get_shared("missing").is_none());
        // The handle stays valid after the element is replaced.
        r.insert(elem("a/x", ElementClass::Storage));
        assert_eq!(h1.class(), ElementClass::Computation);
        assert_eq!(r.get("a/x").unwrap().class(), ElementClass::Storage);
    }

    #[test]
    fn from_json_rejects_non_array() {
        assert!(Registry::from_json(&Json::from(1.0)).is_err());
    }
}
