//! Stage keys: named-component digests with an auditable breakdown.
//!
//! A pipeline stage's store key is assembled from *named components* — the
//! trace key it consumed, the config subset it reads, the scheme identity,
//! the stage's code revision — each digested independently. The final
//! [`StoreKey`] commits to the whole list; the per-component digests are
//! kept alongside it as a [`StageKey`] and stored in the entry's log record
//! as a [`BreakdownDoc`], so when a key misses the store can diff the
//! breakdown against a sibling entry's and name exactly which component
//! changed (the invalidation audit trail).

use serde::{Deserialize, Serialize, Value};

use crate::fingerprint::{Fingerprint, FingerprintHasher, StoreKey};

/// One named input to a stage key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyComponent {
    /// The component's role, e.g. `"trace-key"`, `"sim-config"`.
    pub name: &'static str,
    /// Digest of that component alone.
    pub digest: StoreKey,
}

/// A finished stage key: the composite digest plus its auditable breakdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageKey {
    /// The pipeline stage this key addresses, e.g. `"trace"`, `"simulate"`.
    pub stage: &'static str,
    /// The composite digest that addresses the entry.
    pub key: StoreKey,
    /// The per-component digests the composite commits to.
    pub components: Vec<KeyComponent>,
}

impl StageKey {
    /// Component names whose digests differ between `self` and `other`
    /// (including components present on only one side), in `self`'s order.
    pub fn diff(&self, other: &BreakdownDoc) -> Vec<String> {
        let mut changed = Vec::new();
        for c in &self.components {
            match other.components.iter().find(|(n, _)| n == c.name) {
                Some((_, hex)) if *hex == c.digest.hex() => {}
                _ => changed.push(c.name.to_owned()),
            }
        }
        for (n, _) in &other.components {
            if !self.components.iter().any(|c| c.name == n) {
                changed.push(n.clone());
            }
        }
        changed
    }

    /// The serializable breakdown document for this key.
    pub fn to_doc(&self) -> BreakdownDoc {
        BreakdownDoc {
            stage: self.stage.to_owned(),
            key: self.key.hex(),
            components: self
                .components
                .iter()
                .map(|c| (c.name.to_owned(), c.digest.hex()))
                .collect(),
        }
    }
}

/// The key breakdown a log record carries: an owned, serializable mirror
/// of [`StageKey`] with digests rendered as hex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BreakdownDoc {
    /// The stage name.
    pub stage: String,
    /// The composite digest, hex-rendered.
    pub key: String,
    /// `(component name, digest hex)` pairs in key order.
    pub components: Vec<(String, String)>,
}

impl Serialize for BreakdownDoc {
    fn to_value(&self) -> Value {
        let comps: Vec<Value> = self
            .components
            .iter()
            .map(|(n, d)| Value::Array(vec![Value::Str(n.clone()), Value::Str(d.clone())]))
            .collect();
        Value::Object(vec![
            ("stage".to_owned(), Value::Str(self.stage.clone())),
            ("key".to_owned(), Value::Str(self.key.clone())),
            ("components".to_owned(), Value::Array(comps)),
        ])
    }
}

impl Deserialize for BreakdownDoc {
    fn from_value(v: &Value) -> Result<BreakdownDoc, serde::Error> {
        let field = |name: &str| -> Result<&Value, serde::Error> {
            v.get(name)
                .ok_or_else(|| serde::Error::custom(format!("BreakdownDoc: missing `{name}`")))
        };
        let stage = String::from_value(field("stage")?)?;
        let key = String::from_value(field("key")?)?;
        let comps = match field("components")? {
            Value::Array(items) => items
                .iter()
                .map(pair_from_value)
                .collect::<Result<Vec<_>, _>>()?,
            _ => return Err(serde::Error::custom("BreakdownDoc: components not array")),
        };
        Ok(BreakdownDoc {
            stage,
            key,
            components: comps,
        })
    }
}

/// A `(name, digest)` pair from a two-element JSON array.
fn pair_from_value(v: &Value) -> Result<(String, String), serde::Error> {
    match v {
        Value::Array(items) if items.len() == 2 => Ok((
            String::from_value(&items[0])?,
            String::from_value(&items[1])?,
        )),
        _ => Err(serde::Error::custom("expected [name, digest] pair")),
    }
}

/// Assembles a [`StageKey`] from named components.
///
/// Each component is digested on its own hasher, so the breakdown names the
/// exact inputs; the composite then commits to the stage name and the
/// ordered `(name, digest)` list.
pub struct KeyBuilder {
    stage: &'static str,
    components: Vec<KeyComponent>,
}

impl KeyBuilder {
    /// Starts a key for `stage`.
    pub fn new(stage: &'static str) -> KeyBuilder {
        KeyBuilder {
            stage,
            components: Vec::new(),
        }
    }

    /// Adds a fingerprinted component.
    pub fn component<F: Fingerprint + ?Sized>(mut self, name: &'static str, v: &F) -> KeyBuilder {
        self.components.push(KeyComponent {
            name,
            digest: v.digest(),
        });
        self
    }

    /// Adds an upstream stage's composite key as a component, chaining
    /// stages: any upstream input change propagates into this key.
    pub fn chain(mut self, name: &'static str, upstream: &StageKey) -> KeyBuilder {
        self.components.push(KeyComponent {
            name,
            digest: upstream.key,
        });
        self
    }

    /// Adds a stage code-revision component. Bump the revision constant
    /// when the stage's *semantics* change (output differs for identical
    /// inputs); every entry of that stage then misses cleanly.
    pub fn code_rev(self, rev: u32) -> KeyBuilder {
        self.component("code-rev", &rev)
    }

    /// Finishes the composite digest.
    pub fn finish(self) -> StageKey {
        let mut h = FingerprintHasher::new();
        h.struct_tag("specmt-stage-key/v1");
        h.str(self.stage);
        h.seq(self.components.len());
        for c in &self.components {
            h.str(c.name);
            c.digest.fingerprint(&mut h);
        }
        StageKey {
            stage: self.stage,
            key: h.finish(),
            components: self.components,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(vals: &[(&'static str, u64)]) -> StageKey {
        let mut b = KeyBuilder::new("test");
        for (n, v) in vals {
            b = b.component(n, v);
        }
        b.finish()
    }

    #[test]
    fn component_change_changes_composite() {
        let a = key(&[("x", 1), ("y", 2)]);
        let b = key(&[("x", 1), ("y", 3)]);
        assert_ne!(a.key, b.key);
        assert_eq!(a.components[0].digest, b.components[0].digest);
        assert_ne!(a.components[1].digest, b.components[1].digest);
    }

    #[test]
    fn stage_name_separates_keys() {
        let a = KeyBuilder::new("profile").component("x", &1u64).finish();
        let b = KeyBuilder::new("simulate").component("x", &1u64).finish();
        assert_ne!(a.key, b.key);
    }

    #[test]
    fn diff_names_changed_and_missing_components() {
        let a = key(&[("x", 1), ("y", 2)]);
        let mut doc = key(&[("x", 1), ("y", 3)]).to_doc();
        assert_eq!(a.diff(&doc), vec!["y".to_owned()]);
        doc.components.push(("z".to_owned(), "00".to_owned()));
        assert_eq!(a.diff(&doc), vec!["y".to_owned(), "z".to_owned()]);
        let doc_missing = key(&[("x", 1)]).to_doc();
        assert_eq!(a.diff(&doc_missing), vec!["y".to_owned()]);
    }

    #[test]
    fn breakdown_doc_round_trips_through_json() {
        let doc = key(&[("x", 1), ("y", 2)]).to_doc();
        let json = serde_json::to_string(&doc).expect("serialize");
        let back: BreakdownDoc = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, doc);
    }

    #[test]
    fn chain_propagates_upstream_changes() {
        let up_a = key(&[("p", 1)]);
        let up_b = key(&[("p", 2)]);
        let a = KeyBuilder::new("down").chain("up", &up_a).finish();
        let b = KeyBuilder::new("down").chain("up", &up_b).finish();
        assert_ne!(a.key, b.key);
    }
}
