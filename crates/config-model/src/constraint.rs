//! Declarative configuration constraints.
//!
//! Every protocol server rejects certain configuration combinations at
//! startup (`StartError` with kind `ConfigConflict`): TLS authentication
//! without TLS, DTLS on a multicast socket, a fragment size above the
//! message size.
//!
//! A [`ConstraintSet`] declares those rules: each [`ConfigConstraint`] is
//! a conjunction of [`Condition`]s over resolved configuration values,
//! and a configuration that satisfies every condition of a constraint is
//! a conflict. Targets expose their set through
//! `Target::config_constraints`, which lets the static analyzer
//! (`cmfuzz-analyze`) and the campaign preflight detect the conflict at
//! *assembly* time instead of boot time. The simulated servers boot from
//! the same set: `start()` refuses with the reason of the first
//! constraint a configuration violates.
//!
//! Evaluation uses the same lenient coercions the servers' own config
//! parsing uses ([`ConfigValue::bool_or`], [`ConfigValue::int_or`],
//! [`ConfigValue::str_or`], which the [`ResolvedConfig`] accessors
//! delegate to, and [`ResolvedConfig::list_members`]), with the same
//! per-item defaults, so a condition reads a value exactly as the server
//! that declares it does.
//!
//! # Examples
//!
//! ```
//! use cmfuzz_config_model::{Condition, ConfigConstraint, ConfigValue, ConstraintSet, ResolvedConfig};
//!
//! let set = ConstraintSet::new().with(ConfigConstraint::new(
//!     "auth-method tls requires tls_enabled",
//!     vec![
//!         Condition::str_is("auth-method", "tls", "none"),
//!         Condition::bool_is("tls_enabled", false, false),
//!     ],
//! ));
//!
//! let mut config = ResolvedConfig::new();
//! config.set("auth-method", ConfigValue::Str("tls".into()));
//! assert_eq!(set.violations(&config).len(), 1);
//!
//! config.set("tls_enabled", ConfigValue::Bool(true));
//! assert!(set.violations(&config).is_empty());
//! ```

use std::fmt;

use crate::assemble::LIST_SLOTS;
use crate::{ConfigValue, ResolvedConfig};

/// How one configuration item must look for a [`Condition`] to match.
///
/// Each variant carries the *default* the owning server would substitute
/// for an unbound item, so an empty configuration evaluates exactly like
/// the server's own `Config::parse`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// The boolean value equals `expected`.
    BoolIs {
        /// Matching polarity.
        expected: bool,
        /// Fallback for an unbound item.
        default: bool,
    },
    /// The integer value equals `expected`.
    IntEquals {
        /// Matching value.
        expected: i64,
        /// Fallback for an unbound item.
        default: i64,
    },
    /// The integer value is strictly below `limit`.
    IntBelow {
        /// Exclusive upper bound that triggers the match.
        limit: i64,
        /// Fallback for an unbound item.
        default: i64,
    },
    /// The integer value lies inside `[min, max]` (inclusive).
    IntWithin {
        /// Inclusive lower bound.
        min: i64,
        /// Inclusive upper bound.
        max: i64,
        /// Fallback for an unbound item.
        default: i64,
    },
    /// The integer value lies outside `[min, max]` (inclusive).
    IntOutside {
        /// Inclusive lower bound of the legal range.
        min: i64,
        /// Inclusive upper bound of the legal range.
        max: i64,
        /// Fallback for an unbound item.
        default: i64,
    },
    /// The integer value exceeds the value of another item (cross-item
    /// relation, e.g. a fragment size above the message size).
    IntAboveItem {
        /// The compared item's name.
        other: String,
        /// Fallback for this item when unbound.
        default: i64,
        /// Fallback for the compared item when unbound.
        other_default: i64,
    },
    /// The string value equals `expected`.
    StrIs {
        /// Matching value.
        expected: String,
        /// Fallback for an unbound item.
        default: String,
    },
    /// The string value is one of `any_of`.
    StrIn {
        /// Values that trigger the match.
        any_of: Vec<String>,
        /// Fallback for an unbound item.
        default: String,
    },
    /// The string value is *not* one of `allowed` (an unknown mode name).
    StrNotIn {
        /// The legal values; anything else matches.
        allowed: Vec<String>,
        /// Fallback for an unbound item.
        default: String,
    },
    /// An indexed string list (`{key}[0]`, `{key}[1]`, …) is empty or
    /// contains `value` — the shape flattened YAML sequences take, where
    /// an unconfigured list keeps its defaults.
    ListHasOrEmpty {
        /// The member that triggers the match (or an empty list).
        value: String,
    },
    /// An indexed string list does *not* contain `value`.
    ListLacks {
        /// The member whose absence triggers the match.
        value: String,
    },
}

/// One requirement on one configuration item.
///
/// A condition pairs an item name with a [`Predicate`]; a constraint's
/// conditions must *all* match for the configuration to conflict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Condition {
    key: String,
    predicate: Predicate,
}

impl Condition {
    /// Condition on a boolean item.
    #[must_use]
    pub fn bool_is(key: &str, expected: bool, default: bool) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::BoolIs { expected, default },
        }
    }

    /// Condition matching an exact integer value.
    #[must_use]
    pub fn int_equals(key: &str, expected: i64, default: i64) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::IntEquals { expected, default },
        }
    }

    /// Condition matching integers strictly below `limit`.
    #[must_use]
    pub fn int_below(key: &str, limit: i64, default: i64) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::IntBelow { limit, default },
        }
    }

    /// Condition matching integers inside `[min, max]`.
    #[must_use]
    pub fn int_within(key: &str, min: i64, max: i64, default: i64) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::IntWithin { min, max, default },
        }
    }

    /// Condition matching integers outside `[min, max]`.
    #[must_use]
    pub fn int_outside(key: &str, min: i64, max: i64, default: i64) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::IntOutside { min, max, default },
        }
    }

    /// Condition matching when `key` exceeds `other` (both integers).
    #[must_use]
    pub fn int_above_item(key: &str, other: &str, default: i64, other_default: i64) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::IntAboveItem {
                other: other.to_owned(),
                default,
                other_default: other_default.to_owned(),
            },
        }
    }

    /// Condition matching an exact string value.
    #[must_use]
    pub fn str_is(key: &str, expected: &str, default: &str) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::StrIs {
                expected: expected.to_owned(),
                default: default.to_owned(),
            },
        }
    }

    /// Condition matching any of several string values.
    #[must_use]
    pub fn str_in(key: &str, any_of: &[&str], default: &str) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::StrIn {
                any_of: any_of.iter().map(|s| (*s).to_owned()).collect(),
                default: default.to_owned(),
            },
        }
    }

    /// Condition matching any string *outside* the allowed set.
    #[must_use]
    pub fn str_not_in(key: &str, allowed: &[&str], default: &str) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::StrNotIn {
                allowed: allowed.iter().map(|s| (*s).to_owned()).collect(),
                default: default.to_owned(),
            },
        }
    }

    /// Condition on an indexed list being empty or containing `value`.
    #[must_use]
    pub fn list_has_or_empty(key: &str, value: &str) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::ListHasOrEmpty {
                value: value.to_owned(),
            },
        }
    }

    /// Condition on an indexed list lacking `value`.
    #[must_use]
    pub fn list_lacks(key: &str, value: &str) -> Self {
        Condition {
            key: key.to_owned(),
            predicate: Predicate::ListLacks {
                value: value.to_owned(),
            },
        }
    }

    /// The configuration item this condition constrains.
    #[must_use]
    pub fn key(&self) -> &str {
        &self.key
    }

    /// The predicate applied to the item's value.
    #[must_use]
    pub fn predicate(&self) -> &Predicate {
        &self.predicate
    }

    /// Every item name the condition reads (the key itself plus any
    /// cross-item comparison target).
    #[must_use]
    pub fn referenced_items(&self) -> Vec<&str> {
        match &self.predicate {
            Predicate::IntAboveItem { other, .. } => vec![self.key.as_str(), other.as_str()],
            _ => vec![self.key.as_str()],
        }
    }

    /// Whether `config` satisfies this condition, using the same lenient
    /// value coercions and defaults the owning server's config parsing
    /// uses.
    #[must_use]
    pub fn matches(&self, config: &ResolvedConfig) -> bool {
        match &self.predicate {
            Predicate::IntAboveItem {
                other,
                default,
                other_default,
            } => {
                ConfigValue::int_or(config.get(&self.key), *default)
                    > ConfigValue::int_or(config.get(other), *other_default)
            }
            Predicate::ListHasOrEmpty { value } => {
                let mut members = config.list_members(&self.key).peekable();
                members.peek().is_none() || members.any(|m| m == value)
            }
            Predicate::ListLacks { value } => !config.list_members(&self.key).any(|m| m == value),
            _ => self.matches_value(config.get(&self.key)),
        }
    }

    /// Whether this condition holds on a configuration that binds only its
    /// own key, to `value` (`None`: nothing is bound). A cross-item
    /// comparison then reads the other item's default, and a list
    /// predicate sees an empty list.
    ///
    /// Equal to [`Condition::matches`] on that one-binding configuration,
    /// without building it.
    ///
    /// # Examples
    ///
    /// ```
    /// use cmfuzz_config_model::{Condition, ConfigValue};
    ///
    /// let cond = Condition::int_within("port", 1, 65535, 1883);
    /// assert!(cond.matches_value(None), "the default is in range");
    /// assert!(!cond.matches_value(Some(&ConfigValue::Int(0))));
    /// ```
    #[must_use]
    pub fn matches_value(&self, value: Option<&ConfigValue>) -> bool {
        match &self.predicate {
            Predicate::BoolIs { expected, default } => {
                ConfigValue::bool_or(value, *default) == *expected
            }
            Predicate::IntEquals { expected, default } => {
                ConfigValue::int_or(value, *default) == *expected
            }
            Predicate::IntBelow { limit, default } => ConfigValue::int_or(value, *default) < *limit,
            Predicate::IntWithin { min, max, default } => {
                let v = ConfigValue::int_or(value, *default);
                v >= *min && v <= *max
            }
            Predicate::IntOutside { min, max, default } => {
                let v = ConfigValue::int_or(value, *default);
                v < *min || v > *max
            }
            Predicate::IntAboveItem {
                other,
                default,
                other_default,
            } => {
                let other_value = if *other == self.key { value } else { None };
                ConfigValue::int_or(value, *default)
                    > ConfigValue::int_or(other_value, *other_default)
            }
            Predicate::StrIs { expected, default } => {
                ConfigValue::str_or(value, default) == expected
            }
            Predicate::StrIn { any_of, default } => {
                let v = ConfigValue::str_or(value, default);
                any_of.iter().any(|s| s == v)
            }
            Predicate::StrNotIn { allowed, default } => {
                let v = ConfigValue::str_or(value, default);
                !allowed.iter().any(|s| s == v)
            }
            Predicate::ListHasOrEmpty { .. } | Predicate::ListLacks { .. } => true,
        }
    }

    /// Binds a value under which this condition holds into `config`
    /// (best effort; leaves `config` alone when the condition already
    /// matches, e.g. because its default satisfies it).
    pub fn bind_witness(&self, config: &mut ResolvedConfig) {
        if self.matches(config) {
            return;
        }
        match &self.predicate {
            Predicate::BoolIs { expected, .. } => {
                config.set(&self.key, ConfigValue::Bool(*expected));
            }
            Predicate::IntEquals { expected, .. } => {
                config.set(&self.key, ConfigValue::Int(*expected));
            }
            Predicate::IntBelow { limit, .. } => {
                config.set(&self.key, ConfigValue::Int(limit - 1));
            }
            Predicate::IntWithin { min, .. } => {
                config.set(&self.key, ConfigValue::Int(*min));
            }
            Predicate::IntOutside { max, .. } => {
                config.set(&self.key, ConfigValue::Int(max + 1));
            }
            Predicate::IntAboveItem {
                other,
                other_default,
                ..
            } => {
                let bar = config.int_or(other, *other_default);
                config.set(&self.key, ConfigValue::Int(bar + 1));
            }
            Predicate::StrIs { expected, .. } => {
                config.set(&self.key, ConfigValue::Str(expected.clone()));
            }
            Predicate::StrIn { any_of, .. } => {
                if let Some(first) = any_of.first() {
                    config.set(&self.key, ConfigValue::Str(first.clone()));
                }
            }
            Predicate::StrNotIn { .. } => {
                config.set(&self.key, ConfigValue::Str("cmfuzz-invalid".to_owned()));
            }
            Predicate::ListHasOrEmpty { value } => {
                for i in 0..LIST_SLOTS {
                    let slot = format!("{}[{i}]", self.key);
                    if config.get(&slot).is_none() {
                        config.set(&slot, ConfigValue::Str(value.clone()));
                        break;
                    }
                }
            }
            // Removing a list member is not expressible as a binding; a
            // non-matching Lacks condition keeps the config unchanged.
            Predicate::ListLacks { .. } => {}
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.predicate {
            Predicate::BoolIs { expected, .. } => write!(f, "{} = {expected}", self.key),
            Predicate::IntEquals { expected, .. } => write!(f, "{} = {expected}", self.key),
            Predicate::IntBelow { limit, .. } => write!(f, "{} < {limit}", self.key),
            Predicate::IntWithin { min, max, .. } => {
                write!(f, "{} in [{min}, {max}]", self.key)
            }
            Predicate::IntOutside { min, max, .. } => {
                write!(f, "{} outside [{min}, {max}]", self.key)
            }
            Predicate::IntAboveItem { other, .. } => write!(f, "{} > {other}", self.key),
            Predicate::StrIs { expected, .. } => write!(f, "{} = {expected:?}", self.key),
            Predicate::StrIn { any_of, .. } => {
                write!(f, "{} in {{{}}}", self.key, any_of.join(", "))
            }
            Predicate::StrNotIn { allowed, .. } => {
                write!(f, "{} not in {{{}}}", self.key, allowed.join(", "))
            }
            Predicate::ListHasOrEmpty { value } => {
                write!(f, "{}[] has {value:?} (or is empty)", self.key)
            }
            Predicate::ListLacks { value } => write!(f, "{}[] lacks {value:?}", self.key),
        }
    }
}

/// One startup conflict: a conjunction of conditions that, when all
/// satisfied, makes the target refuse to boot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigConstraint {
    reason: String,
    conditions: Vec<Condition>,
}

impl ConfigConstraint {
    /// Builds a constraint from its human-readable reason (the same text
    /// the server's `StartError` carries) and its conditions.
    #[must_use]
    pub fn new(reason: &str, conditions: Vec<Condition>) -> Self {
        ConfigConstraint {
            reason: reason.to_owned(),
            conditions,
        }
    }

    /// The failure reason the target would report at boot.
    #[must_use]
    pub fn reason(&self) -> &str {
        &self.reason
    }

    /// The conjunction of conditions.
    #[must_use]
    pub fn conditions(&self) -> &[Condition] {
        &self.conditions
    }

    /// Whether `config` satisfies every condition (i.e. conflicts).
    #[must_use]
    pub fn violated_by(&self, config: &ResolvedConfig) -> bool {
        !self.conditions.is_empty() && self.conditions.iter().all(|c| c.matches(config))
    }

    /// Every configuration item the constraint reads, deduplicated in
    /// first-reference order.
    #[must_use]
    pub fn referenced_items(&self) -> Vec<&str> {
        let mut items: Vec<&str> = Vec::new();
        for condition in &self.conditions {
            for item in condition.referenced_items() {
                if !items.contains(&item) {
                    items.push(item);
                }
            }
        }
        items
    }

    /// A configuration that violates this constraint, built by binding a
    /// witness value for each condition (best effort — used by
    /// consistency tests and diagnostics examples).
    #[must_use]
    pub fn witness(&self) -> ResolvedConfig {
        let mut config = ResolvedConfig::new();
        for condition in &self.conditions {
            condition.bind_witness(&mut config);
        }
        config
    }
}

impl fmt::Display for ConfigConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self.conditions.iter().map(Condition::to_string).collect();
        write!(f, "{} when {}", self.reason, rendered.join(" and "))
    }
}

/// A target's complete set of declared startup conflicts.
///
/// The empty set (the [`Default`]) declares nothing — targets that do not
/// describe their conflicts keep today's boot-time-only behaviour.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConstraintSet {
    constraints: Vec<ConfigConstraint>,
}

impl ConstraintSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constraint (builder style).
    #[must_use]
    pub fn with(mut self, constraint: ConfigConstraint) -> Self {
        self.constraints.push(constraint);
        self
    }

    /// Adds a constraint.
    pub fn push(&mut self, constraint: ConfigConstraint) {
        self.constraints.push(constraint);
    }

    /// The constraints in declaration order.
    #[must_use]
    pub fn constraints(&self) -> &[ConfigConstraint] {
        &self.constraints
    }

    /// Number of constraints.
    #[must_use]
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the set declares nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Every constraint `config` violates, in declaration order.
    #[must_use]
    pub fn violations(&self, config: &ResolvedConfig) -> Vec<&ConfigConstraint> {
        self.constraints
            .iter()
            .filter(|c| c.violated_by(config))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tls_conflict() -> ConfigConstraint {
        ConfigConstraint::new(
            "auth-method tls requires tls_enabled",
            vec![
                Condition::str_is("auth-method", "tls", "none"),
                Condition::bool_is("tls_enabled", false, false),
            ],
        )
    }

    #[test]
    fn conjunction_requires_every_condition() {
        let constraint = tls_conflict();
        let mut config = ResolvedConfig::new();
        assert!(!constraint.violated_by(&config), "defaults are clean");
        config.set("auth-method", ConfigValue::Str("tls".into()));
        assert!(constraint.violated_by(&config), "tls without tls_enabled");
        config.set("tls_enabled", ConfigValue::Bool(true));
        assert!(!constraint.violated_by(&config), "enabling tls resolves it");
    }

    #[test]
    fn defaults_participate_in_evaluation() {
        let range = ConfigConstraint::new(
            "invalid listen port",
            vec![Condition::int_outside("port", 1, 65535, 70000)],
        );
        // The (deliberately broken) default already violates the range.
        assert!(range.violated_by(&ResolvedConfig::new()));
    }

    #[test]
    fn witness_violates_its_constraint() {
        let constraints = [
            tls_conflict(),
            ConfigConstraint::new(
                "invalid listen port",
                vec![Condition::int_outside("port", 1, 65535, 1883)],
            ),
            ConfigConstraint::new(
                "tls message floor",
                vec![
                    Condition::bool_is("tls_enabled", true, false),
                    Condition::int_within("message_size_limit", 1, 63, 0),
                ],
            ),
            ConfigConstraint::new(
                "fragment exceeds message size",
                vec![Condition::int_above_item(
                    "fragment",
                    "max-message",
                    1300,
                    1400,
                )],
            ),
            ConfigConstraint::new(
                "unknown cipher",
                vec![Condition::str_not_in(
                    "cipher",
                    &["aes128-gcm", "aes256-gcm"],
                    "aes128-gcm",
                )],
            ),
            ConfigConstraint::new(
                "chacha20 requires 1.2",
                vec![
                    Condition::str_in("version", &["1", "1.0"], "1.2"),
                    Condition::str_is("cipher", "chacha20", "aes128-gcm"),
                ],
            ),
            ConfigConstraint::new("worker floor", vec![Condition::int_below("threads", 1, 4)]),
            ConfigConstraint::new(
                "cache required",
                vec![
                    Condition::bool_is("rd-enable", true, false),
                    Condition::int_equals("cache-size", 0, 100),
                ],
            ),
        ];
        for constraint in &constraints {
            let witness = constraint.witness();
            assert!(
                constraint.violated_by(&witness),
                "witness fails to violate {constraint}"
            );
        }
    }

    #[test]
    fn list_predicates_scan_indexed_slots() {
        let plain = Condition::list_has_or_empty("auth.mechanisms", "PLAIN");
        let external = Condition::list_lacks("auth.mechanisms", "EXTERNAL");
        let empty = ResolvedConfig::new();
        assert!(plain.matches(&empty), "empty list counts as defaulted");
        assert!(external.matches(&empty), "empty list lacks EXTERNAL");

        let mut config = ResolvedConfig::new();
        config.set("auth.mechanisms[0]", ConfigValue::Str("EXTERNAL".into()));
        assert!(!plain.matches(&config));
        assert!(!external.matches(&config));

        let mut witness = config.clone();
        plain.bind_witness(&mut witness);
        assert!(plain.matches(&witness), "witness appended PLAIN");
    }

    #[test]
    fn violations_keep_declaration_order() {
        let set = ConstraintSet::new()
            .with(ConfigConstraint::new(
                "first",
                vec![Condition::bool_is("a", true, false)],
            ))
            .with(ConfigConstraint::new(
                "second",
                vec![Condition::bool_is("b", true, false)],
            ));
        let mut config = ResolvedConfig::new();
        config.set("a", ConfigValue::Bool(true));
        config.set("b", ConfigValue::Bool(true));
        let reasons: Vec<&str> = set.violations(&config).iter().map(|c| c.reason()).collect();
        assert_eq!(reasons, vec!["first", "second"]);
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn referenced_items_deduplicate_and_include_cross_items() {
        let constraint = ConfigConstraint::new(
            "r",
            vec![
                Condition::int_above_item("frag", "max", 0, 0),
                Condition::int_below("frag", 10, 0),
            ],
        );
        assert_eq!(constraint.referenced_items(), vec!["frag", "max"]);
    }

    #[test]
    fn display_renders_conditions() {
        let rendered = tls_conflict().to_string();
        assert!(rendered.contains("auth-method"));
        assert!(rendered.contains(" and "));
        assert!(Condition::int_within("x", 1, 2, 0)
            .to_string()
            .contains("[1, 2]"));
        assert!(Condition::list_lacks("m", "EXTERNAL")
            .to_string()
            .contains("lacks"));
    }

    #[test]
    fn empty_conjunction_never_violates() {
        let constraint = ConfigConstraint::new("vacuous", vec![]);
        assert!(!constraint.violated_by(&ResolvedConfig::new()));
    }
}
