//! Reassembly of entity groups into runtime-ready configurations.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Bound;

use crate::{ConfigEntity, ConfigModel, ConfigValue};

/// Slots an indexed list spans: `{key}[0]` through `{key}[7]`.
pub(crate) const LIST_SLOTS: usize = 8;

/// A concrete configuration handed to a protocol target at startup: entity
/// names bound to chosen values.
///
/// This is the runtime-ready form of paper §III-B2 ("each instance
/// reassembles the configuration entities within its assigned group back
/// into runtime-ready forms"). Protocol targets read it with the typed
/// accessors; anything a target asks for that is not bound falls back to the
/// supplied default, matching how real daemons treat absent options.
///
/// # Examples
///
/// ```
/// use cmfuzz_config_model::{ConfigValue, ResolvedConfig};
///
/// let mut config = ResolvedConfig::new();
/// config.set("max_inflight", ConfigValue::Int(20));
/// config.set("persistence", ConfigValue::Bool(true));
///
/// assert_eq!(config.int_or("max_inflight", 5), 20);
/// assert_eq!(config.bool_or("persistence", false), true);
/// assert_eq!(config.int_or("absent", 7), 7);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResolvedConfig {
    values: BTreeMap<String, ConfigValue>,
}

impl ResolvedConfig {
    /// Creates an empty configuration (every lookup falls back to its
    /// default — the target's stock behaviour).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds every entity of `model` to its default value.
    #[must_use]
    pub fn defaults_of(model: &ConfigModel) -> Self {
        let mut config = ResolvedConfig::new();
        for entity in model.entities() {
            config.set(entity.name(), entity.default_value().clone());
        }
        config
    }

    /// Binds `name` to `value`, replacing any previous binding. Rebinding
    /// a bound name keeps its key allocation.
    pub fn set(&mut self, name: &str, value: ConfigValue) {
        match self.values.get_mut(name) {
            Some(slot) => *slot = value,
            None => {
                self.values.insert(name.to_owned(), value);
            }
        }
    }

    /// Removes the binding for `name`, returning it if present.
    pub fn unset(&mut self, name: &str) -> Option<ConfigValue> {
        self.values.remove(name)
    }

    /// The bound value for `name`, if any.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&ConfigValue> {
        self.values.get(name)
    }

    /// Boolean accessor with fallback; numeric bindings are truthy when
    /// non-zero, string bindings parse leniently ([`ConfigValue::bool_or`]).
    #[must_use]
    pub fn bool_or(&self, name: &str, default: bool) -> bool {
        ConfigValue::bool_or(self.values.get(name), default)
    }

    /// Integer accessor with fallback; booleans coerce to 0/1
    /// ([`ConfigValue::int_or`]).
    #[must_use]
    pub fn int_or(&self, name: &str, default: i64) -> i64 {
        ConfigValue::int_or(self.values.get(name), default)
    }

    /// String accessor with fallback ([`ConfigValue::str_or`]).
    #[must_use]
    pub fn str_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        ConfigValue::str_or(self.values.get(name), default)
    }

    /// The string members of the indexed list `{key}[0]` … `{key}[7]`, in
    /// index order — the shape extraction flattens a YAML sequence into.
    /// Unbound slots and non-string members are skipped, and nothing is
    /// allocated.
    ///
    /// # Examples
    ///
    /// ```
    /// use cmfuzz_config_model::{ConfigValue, ResolvedConfig};
    ///
    /// let mut config = ResolvedConfig::new();
    /// config.set("auth.mechanisms[1]", ConfigValue::Str("PLAIN".into()));
    /// config.set("auth.mechanisms[0]", ConfigValue::Str("EXTERNAL".into()));
    /// config.set("auth.mechanisms[8]", ConfigValue::Str("ANONYMOUS".into()));
    /// let members: Vec<&str> = config.list_members("auth.mechanisms").collect();
    /// assert_eq!(members, ["EXTERNAL", "PLAIN"]);
    /// ```
    pub fn list_members<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        // Every name starting with `key` sorts contiguously from `key`
        // itself, and `{key}[0]` … `{key}[7]` sort in index order.
        self.values
            .range::<str, _>((Bound::Included(key), Bound::Unbounded))
            .take_while(move |(name, _)| name.starts_with(key))
            .filter(move |(name, _)| is_list_slot(&name.as_bytes()[key.len()..]))
            .filter_map(|(_, value)| value.as_str())
    }

    /// Iterates over `(name, value)` bindings in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ConfigValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of bindings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no values are bound.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// Whether a name's suffix after its list key is one of the slots
/// `[0]` … `[7]`.
fn is_list_slot(suffix: &[u8]) -> bool {
    let slots = b'0'..b'0' + LIST_SLOTS as u8;
    matches!(suffix, [b'[', digit, b']'] if slots.contains(digit))
}

impl fmt::Display for ResolvedConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self
            .values
            .iter()
            .map(|(k, v)| format!("{k}={}", v.render()))
            .collect();
        write!(f, "{{{}}}", rendered.join(", "))
    }
}

impl FromIterator<(String, ConfigValue)> for ResolvedConfig {
    fn from_iter<I: IntoIterator<Item = (String, ConfigValue)>>(iter: I) -> Self {
        ResolvedConfig {
            values: iter.into_iter().collect(),
        }
    }
}

/// Renders an entity group with chosen values back into runtime-ready
/// forms: CLI argv or configuration-file text (paper §III-B2).
///
/// # Examples
///
/// ```
/// use cmfuzz_config_model::{Assembler, ConfigValue, ResolvedConfig};
///
/// let mut config = ResolvedConfig::new();
/// config.set("cache-size", ConfigValue::Int(150));
/// config.set("no-resolv", ConfigValue::Bool(true));
///
/// let argv = Assembler::to_cli_args(&config);
/// assert_eq!(argv, vec!["--cache-size=150", "--no-resolv"]);
///
/// let text = Assembler::to_key_value_file(&config);
/// assert_eq!(text, "cache-size=150\nno-resolv=true\n");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Assembler;

impl Assembler {
    /// Renders a configuration as CLI arguments: `--name=value`, with `true`
    /// booleans as bare `--name` flags and `false` booleans omitted.
    #[must_use]
    pub fn to_cli_args(config: &ResolvedConfig) -> Vec<String> {
        let mut argv = Vec::with_capacity(config.len());
        for (name, value) in config.iter() {
            match value {
                ConfigValue::Bool(true) => argv.push(format!("--{name}")),
                ConfigValue::Bool(false) => {}
                other => argv.push(format!("--{name}={}", other.render())),
            }
        }
        argv
    }

    /// Renders a configuration as key-value configuration-file text.
    #[must_use]
    pub fn to_key_value_file(config: &ResolvedConfig) -> String {
        let mut out = String::new();
        for (name, value) in config.iter() {
            out.push_str(name);
            out.push('=');
            out.push_str(&value.render());
            out.push('\n');
        }
        out
    }

    /// Renders a configuration as a JSON document for targets configured
    /// through hierarchical files; dotted names reconstruct nesting
    /// (`a.b=1` becomes `{"a":{"b":1}}`).
    ///
    /// # Examples
    ///
    /// ```
    /// use cmfuzz_config_model::{Assembler, ConfigValue, ResolvedConfig};
    ///
    /// let mut config = ResolvedConfig::new();
    /// config.set("qos.depth", ConfigValue::Int(8));
    /// config.set("qos.reliable", ConfigValue::Bool(true));
    /// config.set("name", ConfigValue::Str("gw".into()));
    /// assert_eq!(
    ///     Assembler::to_json_file(&config),
    ///     r#"{"name":"gw","qos":{"depth":8,"reliable":true}}"#
    /// );
    /// ```
    #[must_use]
    pub fn to_json_file(config: &ResolvedConfig) -> String {
        #[derive(Default)]
        struct Node {
            children: BTreeMap<String, Node>,
            value: Option<ConfigValue>,
        }
        let mut root = Node::default();
        for (name, value) in config.iter() {
            let mut node = &mut root;
            for part in name.split('.') {
                node = node.children.entry(part.to_owned()).or_default();
            }
            node.value = Some(value.clone());
        }
        fn render(node: &Node) -> String {
            if let Some(value) = &node.value {
                return match value {
                    ConfigValue::Str(s) => {
                        format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
                    }
                    other => other.render(),
                };
            }
            let fields: Vec<String> = node
                .children
                .iter()
                .map(|(key, child)| format!("\"{key}\":{}", render(child)))
                .collect();
            format!("{{{}}}", fields.join(","))
        }
        render(&root)
    }

    /// Checks an assembled configuration against a target's declared
    /// startup constraints, returning every violated constraint.
    ///
    /// The simulated servers boot from these declarations and refuse with
    /// the reason of the first violated constraint, so a non-empty return
    /// means handing this configuration to `start()` would fail: the
    /// conflict can be reported as a diagnostic *before* any instance
    /// spins up.
    ///
    /// # Examples
    ///
    /// ```
    /// use cmfuzz_config_model::{
    ///     Assembler, Condition, ConfigConstraint, ConfigValue, ConstraintSet, ResolvedConfig,
    /// };
    ///
    /// let constraints = ConstraintSet::new().with(ConfigConstraint::new(
    ///     "dtls cannot run on a multicast socket",
    ///     vec![
    ///         Condition::bool_is("dtls", true, false),
    ///         Condition::bool_is("multicast", true, false),
    ///     ],
    /// ));
    /// let mut config = ResolvedConfig::new();
    /// config.set("dtls", ConfigValue::Bool(true));
    /// config.set("multicast", ConfigValue::Bool(true));
    /// let conflicts = Assembler::conflicts(&config, &constraints);
    /// assert_eq!(conflicts[0].reason(), "dtls cannot run on a multicast socket");
    /// ```
    #[must_use]
    pub fn conflicts<'a>(
        config: &ResolvedConfig,
        constraints: &'a crate::ConstraintSet,
    ) -> Vec<&'a crate::ConfigConstraint> {
        constraints.violations(config)
    }

    /// Produces the configuration binding a group of entities to specific
    /// values: group members take the provided `choices` (or their default
    /// when absent); entities outside the group are left unbound.
    #[must_use]
    pub fn bind_group(group: &[&ConfigEntity], choices: &ResolvedConfig) -> ResolvedConfig {
        let mut config = ResolvedConfig::new();
        for entity in group {
            let value = choices
                .get(entity.name())
                .cloned()
                .unwrap_or_else(|| entity.default_value().clone());
            config.set(entity.name(), value);
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfigSpace, Mutability, ValueType};

    #[test]
    fn defaults_of_binds_every_entity() {
        let space = ConfigSpace {
            cli: vec!["--a=1".to_owned(), "--b=true".to_owned()],
            files: vec![],
        };
        let model = crate::extract_model(&space);
        let config = ResolvedConfig::defaults_of(&model);
        assert_eq!(config.len(), 2);
        assert_eq!(config.int_or("a", 0), 1);
        assert!(config.bool_or("b", false));
    }

    #[test]
    fn typed_accessors_coerce() {
        let mut c = ResolvedConfig::new();
        c.set("n", ConfigValue::Str("42".into()));
        c.set("b", ConfigValue::Int(1));
        c.set("f", ConfigValue::Float(8.0));
        c.set("s", ConfigValue::Str("mode".into()));
        assert_eq!(c.int_or("n", 0), 42);
        assert!(c.bool_or("b", false));
        assert_eq!(c.int_or("f", 0), 8);
        assert_eq!(c.str_or("s", "x"), "mode");
        assert_eq!(c.str_or("missing", "x"), "x");
        assert_eq!(c.int_or("s", 9), 9, "non-numeric string falls back");
    }

    #[test]
    fn unset_removes_binding() {
        let mut c = ResolvedConfig::new();
        c.set("a", ConfigValue::Int(1));
        assert_eq!(c.unset("a"), Some(ConfigValue::Int(1)));
        assert_eq!(c.unset("a"), None);
        assert!(c.is_empty());
    }

    #[test]
    fn cli_rendering_rules() {
        let mut c = ResolvedConfig::new();
        c.set("flag", ConfigValue::Bool(true));
        c.set("off", ConfigValue::Bool(false));
        c.set("num", ConfigValue::Int(5));
        c.set("word", ConfigValue::Str("x".into()));
        assert_eq!(
            Assembler::to_cli_args(&c),
            vec!["--flag", "--num=5", "--word=x"]
        );
    }

    #[test]
    fn key_value_rendering_round_trips_through_extraction() {
        let mut c = ResolvedConfig::new();
        c.set("cache", ConfigValue::Int(150));
        c.set("secure", ConfigValue::Bool(true));
        let text = Assembler::to_key_value_file(&c);
        let items = crate::extract::extract_key_value("r.conf", &text);
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].name(), "cache");
        assert_eq!(items[0].raw_value(), "150");
    }

    #[test]
    fn json_rendering_round_trips_through_extraction() {
        let mut c = ResolvedConfig::new();
        c.set("net.port", ConfigValue::Int(5683));
        c.set("net.secure", ConfigValue::Bool(false));
        c.set("label", ConfigValue::Str("edge \"gw\"".into()));
        let text = Assembler::to_json_file(&c);
        let items = crate::extract::extract_json("r.json", &text);
        assert_eq!(items.len(), 3);
        let find = |name: &str| {
            items
                .iter()
                .find(|i| i.name() == name)
                .unwrap_or_else(|| panic!("{name} extracted"))
                .raw_value()
                .to_owned()
        };
        assert_eq!(find("net.port"), "5683");
        assert_eq!(find("net.secure"), "false");
        assert_eq!(find("label"), "edge \"gw\"");
    }

    #[test]
    fn bind_group_uses_choices_then_defaults() {
        let e1 = ConfigEntity::new(
            "a",
            ValueType::Number,
            Mutability::Mutable,
            vec![ConfigValue::Int(1), ConfigValue::Int(2)],
        );
        let e2 = ConfigEntity::new(
            "b",
            ValueType::Boolean,
            Mutability::Mutable,
            vec![ConfigValue::Bool(false), ConfigValue::Bool(true)],
        );
        let mut choices = ResolvedConfig::new();
        choices.set("a", ConfigValue::Int(2));
        let bound = Assembler::bind_group(&[&e1, &e2], &choices);
        assert_eq!(bound.get("a"), Some(&ConfigValue::Int(2)));
        assert_eq!(bound.get("b"), Some(&ConfigValue::Bool(false)));
    }

    #[test]
    fn conflicts_flags_violations_at_assembly_time() {
        use crate::{Condition, ConfigConstraint, ConstraintSet};
        let constraints = ConstraintSet::new().with(ConfigConstraint::new(
            "strict-order requires resolv.conf servers",
            vec![
                Condition::bool_is("strict-order", true, false),
                Condition::bool_is("no-resolv", true, false),
            ],
        ));
        let mut config = ResolvedConfig::new();
        config.set("strict-order", ConfigValue::Bool(true));
        assert!(Assembler::conflicts(&config, &constraints).is_empty());
        config.set("no-resolv", ConfigValue::Bool(true));
        let found = Assembler::conflicts(&config, &constraints);
        assert_eq!(found.len(), 1);
        assert_eq!(
            found[0].reason(),
            "strict-order requires resolv.conf servers"
        );
    }

    #[test]
    fn display_and_from_iterator() {
        let c: ResolvedConfig = vec![("k".to_owned(), ConfigValue::Int(3))]
            .into_iter()
            .collect();
        assert_eq!(c.to_string(), "{k=3}");
    }
}
