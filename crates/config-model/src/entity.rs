//! The generalized configuration entity (paper Figure 2).

use std::fmt;

use crate::{ConfigItem, ConfigValue, ValueType};

/// The *Flag* attribute of a configuration entity: whether the scheduler may
/// mutate its value during fuzzing (paper Figure 2).
///
/// Static values such as paths or system directories are `Immutable`;
/// adjustable values such as numeric ranges or mode settings are `Mutable`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mutability {
    /// The scheduler may substitute typical values during fuzzing.
    Mutable,
    /// The value is environmental (paths, identities) and is left alone.
    Immutable,
}

impl fmt::Display for Mutability {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Mutability::Mutable => "MUTABLE",
            Mutability::Immutable => "IMMUTABLE",
        })
    }
}

/// A configuration entity: the 4-tuple `(Name, Type, Flag, Values)` of the
/// paper's generalized configuration model (Figure 2).
///
/// Entities are produced from raw [`ConfigItem`]s by
/// [`ConfigEntity::from_item`], which performs the three inferences the
/// paper describes: *Type* from the value pattern, *Flag* from whether the
/// value looks environmental, and *Values* (the typical mutation values)
/// from the default, declared candidates, and type-directed neighbours.
///
/// # Examples
///
/// ```
/// use cmfuzz_config_model::{ConfigEntity, ConfigItem, ItemSource, Mutability, ValueType};
///
/// let item = ConfigItem::new("max_inflight", "20", ItemSource::Cli);
/// let entity = ConfigEntity::from_item(&item);
/// assert_eq!(entity.name(), "max_inflight");
/// assert_eq!(entity.value_type(), ValueType::Number);
/// assert_eq!(entity.mutability(), Mutability::Mutable);
/// assert!(entity.values().len() >= 3, "typical values derived");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigEntity {
    name: String,
    value_type: ValueType,
    mutability: Mutability,
    values: Vec<ConfigValue>,
}

impl ConfigEntity {
    /// Builds an entity directly from its four attributes.
    ///
    /// Prefer [`ConfigEntity::from_item`]; this constructor serves targets
    /// that declare their configuration model programmatically. Duplicate
    /// values are removed, preserving first occurrence (the default).
    #[must_use]
    pub fn new(
        name: &str,
        value_type: ValueType,
        mutability: Mutability,
        values: Vec<ConfigValue>,
    ) -> Self {
        ConfigEntity {
            name: name.to_owned(),
            value_type,
            mutability,
            values: dedup_values(values),
        }
    }

    /// Normalizes a raw extracted item into an entity, inferring *Type*,
    /// *Flag* and *Values* as described in paper §III-A2.
    #[must_use]
    pub fn from_item(item: &ConfigItem) -> Self {
        let raw = item.raw_value();
        let value_type = if raw.is_empty() && item.candidates().is_empty() {
            // A bare flag with no value is an on/off toggle.
            ValueType::Boolean
        } else {
            ValueType::infer(raw)
        };
        let mutability = infer_mutability(item.name(), raw, value_type);
        let default = if raw.is_empty() {
            match value_type {
                ValueType::Boolean => ConfigValue::Bool(false),
                ValueType::Number => ConfigValue::Int(0),
                ValueType::String => ConfigValue::Str(String::new()),
            }
        } else {
            ConfigValue::parse(raw)
        };
        let values = match mutability {
            Mutability::Immutable => vec![default],
            Mutability::Mutable => typical_values(&default, value_type, item.candidates()),
        };
        ConfigEntity {
            name: item.name().to_owned(),
            value_type,
            mutability,
            values: dedup_values(values),
        }
    }

    /// The *Name* attribute.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The *Type* attribute.
    #[must_use]
    pub fn value_type(&self) -> ValueType {
        self.value_type
    }

    /// The *Flag* attribute.
    #[must_use]
    pub fn mutability(&self) -> Mutability {
        self.mutability
    }

    /// The *Values* attribute: typical values, default first.
    #[must_use]
    pub fn values(&self) -> &[ConfigValue] {
        &self.values
    }

    /// The default value (the first typical value).
    #[must_use]
    pub fn default_value(&self) -> &ConfigValue {
        &self.values[0]
    }

    /// Whether the scheduler may mutate this entity during fuzzing.
    #[must_use]
    pub fn is_mutable(&self) -> bool {
        self.mutability == Mutability::Mutable
    }
}

impl fmt::Display for ConfigEntity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} : {} [{}] {{{}}}",
            self.name,
            self.value_type,
            self.mutability,
            self.values
                .iter()
                .map(ConfigValue::render)
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

fn dedup_values(values: Vec<ConfigValue>) -> Vec<ConfigValue> {
    let mut out: Vec<ConfigValue> = Vec::with_capacity(values.len());
    for v in values {
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

/// Keywords that mark an item as environmental and therefore IMMUTABLE.
const IMMUTABLE_NAME_HINTS: &[&str] = &[
    "path",
    "dir",
    "file",
    "cert",
    "cafile",
    "keyfile",
    "pid",
    "socket",
    "home",
    "user",
    "group",
    "uri",
    "url",
    "host",
    "interface",
];

fn infer_mutability(name: &str, raw: &str, value_type: ValueType) -> Mutability {
    if value_type == ValueType::String {
        let lower = name.to_ascii_lowercase();
        if IMMUTABLE_NAME_HINTS.iter().any(|hint| lower.contains(hint)) {
            return Mutability::Immutable;
        }
        if looks_like_path_or_url(raw) {
            return Mutability::Immutable;
        }
    }
    Mutability::Mutable
}

fn looks_like_path_or_url(raw: &str) -> bool {
    raw.contains("://") || raw.starts_with('/') || raw.starts_with("./") || raw.starts_with("~/")
}

/// Derives the typical-value set for a mutable entity (paper Figure 2's
/// *Values* attribute: "derived from the item's standardized configuration
/// model", seeded with the default, declared candidates, and type-directed
/// neighbours).
fn typical_values(default: &ConfigValue, ty: ValueType, candidates: &[String]) -> Vec<ConfigValue> {
    let mut values = vec![default.clone()];
    values.extend(candidates.iter().map(|c| ConfigValue::parse(c)));
    match ty {
        ValueType::Boolean => {
            if let Some(b) = default.as_bool() {
                values.push(ConfigValue::Bool(!b));
            } else {
                values.push(ConfigValue::Bool(true));
                values.push(ConfigValue::Bool(false));
            }
        }
        ValueType::Number => {
            if let Some(n) = default.as_int() {
                // Most-diverse first: scheduling probes take a prefix of
                // this list, so the extremes that unlock different code
                // must precede the near-default neighbours.
                for candidate in [0, n.saturating_mul(2), 65535, 1, n / 2, n.saturating_add(1)] {
                    values.push(ConfigValue::Int(candidate));
                }
            } else if let ConfigValue::Float(f) = default {
                values.push(ConfigValue::Float(0.0));
                values.push(ConfigValue::Float(f * 2.0));
            }
        }
        ValueType::String => {
            // Without declared candidates there is nothing sensible to try
            // beyond the default; the empty string probes missing-value
            // handling.
            values.push(ConfigValue::Str(String::new()));
        }
    }
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ItemSource;

    fn cli(name: &str, value: &str) -> ConfigItem {
        ConfigItem::new(name, value, ItemSource::Cli)
    }

    #[test]
    fn numeric_item_becomes_mutable_number() {
        let e = ConfigEntity::from_item(&cli("keepalive", "60"));
        assert_eq!(e.value_type(), ValueType::Number);
        assert_eq!(e.mutability(), Mutability::Mutable);
        assert_eq!(e.default_value(), &ConfigValue::Int(60));
        assert!(e.values().contains(&ConfigValue::Int(120)), "double");
        assert!(e.values().contains(&ConfigValue::Int(0)), "zero");
        assert!(e.values().contains(&ConfigValue::Int(65535)), "extreme");
    }

    #[test]
    fn boolean_item_gets_both_polarities() {
        let e = ConfigEntity::from_item(&cli("persistence", "true"));
        assert_eq!(e.value_type(), ValueType::Boolean);
        assert_eq!(
            e.values(),
            &[ConfigValue::Bool(true), ConfigValue::Bool(false)]
        );
    }

    #[test]
    fn bare_flag_is_boolean_defaulting_off() {
        let e = ConfigEntity::from_item(&cli("verbose", ""));
        assert_eq!(e.value_type(), ValueType::Boolean);
        assert_eq!(e.default_value(), &ConfigValue::Bool(false));
        assert!(e.values().contains(&ConfigValue::Bool(true)));
    }

    #[test]
    fn path_value_is_immutable_string() {
        let e = ConfigEntity::from_item(&cli("log", "/var/log/broker.log"));
        assert_eq!(e.value_type(), ValueType::String);
        assert_eq!(e.mutability(), Mutability::Immutable);
        assert_eq!(e.values().len(), 1, "immutable entities keep one value");
    }

    #[test]
    fn path_like_name_is_immutable() {
        let e = ConfigEntity::from_item(&cli("certfile", "server.crt"));
        assert_eq!(e.mutability(), Mutability::Immutable);
    }

    #[test]
    fn url_value_is_immutable() {
        let e = ConfigEntity::from_item(&cli("upstream", "coap://gateway"));
        assert_eq!(e.mutability(), Mutability::Immutable);
    }

    #[test]
    fn mode_string_is_mutable() {
        let e = ConfigEntity::from_item(&cli("log_level", "info"));
        assert_eq!(e.value_type(), ValueType::String);
        assert_eq!(e.mutability(), Mutability::Mutable);
    }

    #[test]
    fn declared_candidates_seed_values() {
        let item = cli("qos", "0").with_candidates(["0", "1", "2"]);
        let e = ConfigEntity::from_item(&item);
        assert!(e.values().contains(&ConfigValue::Int(1)));
        assert!(e.values().contains(&ConfigValue::Int(2)));
    }

    #[test]
    fn values_are_deduplicated_default_first() {
        let item = cli("depth", "1").with_candidates(["1", "1", "2"]);
        let e = ConfigEntity::from_item(&item);
        assert_eq!(e.values()[0], ConfigValue::Int(1));
        let ones = e
            .values()
            .iter()
            .filter(|v| **v == ConfigValue::Int(1))
            .count();
        assert_eq!(ones, 1);
    }

    #[test]
    fn direct_constructor_dedups() {
        let e = ConfigEntity::new(
            "x",
            ValueType::Number,
            Mutability::Mutable,
            vec![
                ConfigValue::Int(1),
                ConfigValue::Int(1),
                ConfigValue::Int(2),
            ],
        );
        assert_eq!(e.values().len(), 2);
    }

    #[test]
    fn display_shows_all_four_attributes() {
        let e = ConfigEntity::from_item(&cli("persistence", "true"));
        let s = e.to_string();
        assert!(s.contains("persistence"));
        assert!(s.contains("Boolean"));
        assert!(s.contains("MUTABLE"));
        assert!(s.contains("true"));
        assert_eq!(Mutability::Immutable.to_string(), "IMMUTABLE");
    }

    #[test]
    fn float_default_gets_neighbours() {
        let e = ConfigEntity::from_item(&cli("timeout", "2.5"));
        assert_eq!(e.value_type(), ValueType::Number);
        assert!(e.values().contains(&ConfigValue::Float(5.0)));
    }
}
