//! Configuration values and type inference.

use std::fmt;

/// The *Type* attribute of a configuration entity (paper Figure 2).
///
/// Inferred from the raw value's pattern: numeric values are `Number`,
/// boolean-like values are `Boolean`, everything else (including file paths
/// and URLs) is `String`.
///
/// # Examples
///
/// ```
/// use cmfuzz_config_model::ValueType;
///
/// assert_eq!(ValueType::infer("1883"), ValueType::Number);
/// assert_eq!(ValueType::infer("true"), ValueType::Boolean);
/// assert_eq!(ValueType::infer("/etc/mosquitto/ca.crt"), ValueType::String);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueType {
    /// Integer or floating-point quantity.
    Number,
    /// Two-state toggle (`true`/`false`, `yes`/`no`, `on`/`off`).
    Boolean,
    /// Free-form text, paths, URLs, mode names.
    String,
}

impl ValueType {
    /// Infers the type of a raw textual value.
    #[must_use]
    pub fn infer(raw: &str) -> ValueType {
        let trimmed = raw.trim();
        if is_boolean_like(trimmed) {
            ValueType::Boolean
        } else if trimmed.parse::<i64>().is_ok() || trimmed.parse::<f64>().is_ok() {
            ValueType::Number
        } else {
            ValueType::String
        }
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Number => "Number",
            ValueType::Boolean => "Boolean",
            ValueType::String => "String",
        };
        f.write_str(s)
    }
}

fn is_boolean_like(raw: &str) -> bool {
    matches!(
        raw.to_ascii_lowercase().as_str(),
        "true" | "false" | "yes" | "no" | "on" | "off"
    )
}

/// A concrete configuration value.
///
/// `ConfigValue` is what the scheduler feeds back into a target when
/// exploring value combinations and what [`ResolvedConfig`] carries at
/// target startup.
///
/// [`ResolvedConfig`]: crate::ResolvedConfig
///
/// # Examples
///
/// ```
/// use cmfuzz_config_model::{ConfigValue, ValueType};
///
/// let v = ConfigValue::parse("20");
/// assert_eq!(v, ConfigValue::Int(20));
/// assert_eq!(v.value_type(), ValueType::Number);
/// assert_eq!(v.render(), "20");
/// assert_eq!(ConfigValue::parse("off"), ConfigValue::Bool(false));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigValue {
    /// Boolean toggle.
    Bool(bool),
    /// Integer quantity.
    Int(i64),
    /// Floating-point quantity.
    Float(f64),
    /// Text value.
    Str(String),
}

impl ConfigValue {
    /// Parses a raw textual value into its most specific representation.
    #[must_use]
    pub fn parse(raw: &str) -> ConfigValue {
        let trimmed = raw.trim();
        match trimmed.to_ascii_lowercase().as_str() {
            "true" | "yes" | "on" => return ConfigValue::Bool(true),
            "false" | "no" | "off" => return ConfigValue::Bool(false),
            _ => {}
        }
        if let Ok(i) = trimmed.parse::<i64>() {
            return ConfigValue::Int(i);
        }
        if let Ok(f) = trimmed.parse::<f64>() {
            return ConfigValue::Float(f);
        }
        ConfigValue::Str(trimmed.to_owned())
    }

    /// The [`ValueType`] this value belongs to.
    #[must_use]
    pub fn value_type(&self) -> ValueType {
        match self {
            ConfigValue::Bool(_) => ValueType::Boolean,
            ConfigValue::Int(_) | ConfigValue::Float(_) => ValueType::Number,
            ConfigValue::Str(_) => ValueType::String,
        }
    }

    /// Renders the value back to configuration-file / CLI text.
    #[must_use]
    pub fn render(&self) -> String {
        match self {
            ConfigValue::Bool(b) => b.to_string(),
            ConfigValue::Int(i) => i.to_string(),
            ConfigValue::Float(f) => f.to_string(),
            ConfigValue::Str(s) => s.clone(),
        }
    }

    /// The boolean payload, if this is a `Bool`.
    #[must_use]
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            ConfigValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int` (or an integral `Float`).
    #[must_use]
    pub fn as_int(&self) -> Option<i64> {
        match self {
            ConfigValue::Int(i) => Some(*i),
            ConfigValue::Float(f) if f.fract() == 0.0 && f.abs() < 9.0e18 => Some(*f as i64),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            ConfigValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean an optional binding reads as, `default` when unbound:
    /// numbers are truthy when non-zero, and strings parse leniently
    /// (`yes`/`on`/`true` and their negations, any case).
    ///
    /// This is the one boolean coercion: [`ResolvedConfig::bool_or`] and
    /// every [`Condition`] read values through it.
    ///
    /// [`ResolvedConfig::bool_or`]: crate::ResolvedConfig::bool_or
    /// [`Condition`]: crate::Condition
    ///
    /// # Examples
    ///
    /// ```
    /// use cmfuzz_config_model::ConfigValue;
    ///
    /// assert!(ConfigValue::bool_or(Some(&ConfigValue::Str("On".into())), false));
    /// assert!(!ConfigValue::bool_or(Some(&ConfigValue::Int(0)), true));
    /// assert!(ConfigValue::bool_or(None, true));
    /// ```
    #[must_use]
    pub fn bool_or(value: Option<&ConfigValue>, default: bool) -> bool {
        match value {
            Some(ConfigValue::Bool(b)) => *b,
            Some(ConfigValue::Int(i)) => *i != 0,
            Some(ConfigValue::Float(f)) => *f != 0.0,
            Some(ConfigValue::Str(s)) => {
                let word = s.trim();
                let is = |words: [&str; 3]| words.iter().any(|w| word.eq_ignore_ascii_case(w));
                if is(["true", "yes", "on"]) {
                    true
                } else if is(["false", "no", "off"]) {
                    false
                } else {
                    default
                }
            }
            None => default,
        }
    }

    /// The integer an optional binding reads as, `default` when unbound or
    /// not integral: booleans coerce to 0/1 and strings parse after
    /// trimming.
    #[must_use]
    pub fn int_or(value: Option<&ConfigValue>, default: i64) -> i64 {
        match value {
            Some(ConfigValue::Int(i)) => *i,
            Some(ConfigValue::Float(f)) if f.fract() == 0.0 => *f as i64,
            Some(ConfigValue::Bool(b)) => i64::from(*b),
            Some(ConfigValue::Str(s)) => s.trim().parse().unwrap_or(default),
            _ => default,
        }
    }

    /// The string an optional binding reads as: its text when it is a
    /// `Str`, otherwise `default`.
    #[must_use]
    pub fn str_or<'a>(value: Option<&'a ConfigValue>, default: &'a str) -> &'a str {
        match value {
            Some(ConfigValue::Str(s)) => s,
            _ => default,
        }
    }
}

impl fmt::Display for ConfigValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigValue::Bool(b) => write!(f, "{b}"),
            ConfigValue::Int(i) => write!(f, "{i}"),
            ConfigValue::Float(x) => write!(f, "{x}"),
            ConfigValue::Str(s) => f.write_str(s),
        }
    }
}

impl From<bool> for ConfigValue {
    fn from(b: bool) -> Self {
        ConfigValue::Bool(b)
    }
}

impl From<i64> for ConfigValue {
    fn from(i: i64) -> Self {
        ConfigValue::Int(i)
    }
}

impl From<&str> for ConfigValue {
    fn from(s: &str) -> Self {
        ConfigValue::Str(s.to_owned())
    }
}

impl From<String> for ConfigValue {
    fn from(s: String) -> Self {
        ConfigValue::Str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn infer_number() {
        assert_eq!(ValueType::infer("42"), ValueType::Number);
        assert_eq!(ValueType::infer("-3"), ValueType::Number);
        assert_eq!(ValueType::infer("3.14"), ValueType::Number);
        assert_eq!(ValueType::infer(" 7 "), ValueType::Number);
    }

    #[test]
    fn infer_boolean() {
        for raw in ["true", "FALSE", "Yes", "no", "ON", "off"] {
            assert_eq!(ValueType::infer(raw), ValueType::Boolean, "{raw}");
        }
    }

    #[test]
    fn infer_string_for_everything_else() {
        for raw in ["/var/lib/db", "mqtt://host", "none", "", "1a"] {
            assert_eq!(ValueType::infer(raw), ValueType::String, "{raw:?}");
        }
    }

    #[test]
    fn parse_round_trips_through_render() {
        for raw in ["true", "false", "10", "-5", "2.5", "plain"] {
            let v = ConfigValue::parse(raw);
            assert_eq!(ConfigValue::parse(&v.render()), v, "{raw}");
        }
    }

    #[test]
    fn parse_boolean_synonyms_normalize() {
        assert_eq!(ConfigValue::parse("Yes"), ConfigValue::Bool(true));
        assert_eq!(ConfigValue::parse("off"), ConfigValue::Bool(false));
    }

    #[test]
    fn accessors() {
        assert_eq!(ConfigValue::Bool(true).as_bool(), Some(true));
        assert_eq!(ConfigValue::Int(5).as_int(), Some(5));
        assert_eq!(ConfigValue::Float(4.0).as_int(), Some(4));
        assert_eq!(ConfigValue::Float(4.5).as_int(), None);
        assert_eq!(ConfigValue::Str("x".into()).as_str(), Some("x"));
        assert_eq!(ConfigValue::Int(5).as_bool(), None);
        assert_eq!(ConfigValue::Bool(true).as_str(), None);
    }

    #[test]
    fn value_type_of_value() {
        assert_eq!(ConfigValue::Bool(true).value_type(), ValueType::Boolean);
        assert_eq!(ConfigValue::Int(1).value_type(), ValueType::Number);
        assert_eq!(ConfigValue::Float(0.5).value_type(), ValueType::Number);
        assert_eq!(ConfigValue::Str("a".into()).value_type(), ValueType::String);
    }

    #[test]
    fn display_matches_render() {
        let v = ConfigValue::Int(88);
        assert_eq!(v.to_string(), v.render());
        assert_eq!(ValueType::Number.to_string(), "Number");
        assert_eq!(ValueType::Boolean.to_string(), "Boolean");
        assert_eq!(ValueType::String.to_string(), "String");
    }

    #[test]
    fn from_conversions() {
        assert_eq!(ConfigValue::from(true), ConfigValue::Bool(true));
        assert_eq!(ConfigValue::from(3i64), ConfigValue::Int(3));
        assert_eq!(ConfigValue::from("s"), ConfigValue::Str("s".into()));
        assert_eq!(
            ConfigValue::from(String::from("s")),
            ConfigValue::Str("s".into())
        );
    }
}
