//! Raw configuration items as extracted from their sources.

use std::fmt;

/// Where a configuration item was extracted from (Algorithm 1 inputs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ItemSource {
    /// A command-line option (`--option=value`, `-flag`, help text).
    Cli,
    /// A configuration file, identified by its name.
    File {
        /// File name the item came from (e.g. `mosquitto.conf`).
        name: String,
    },
}

impl fmt::Display for ItemSource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ItemSource::Cli => f.write_str("cli"),
            ItemSource::File { name } => write!(f, "file:{name}"),
        }
    }
}

/// A raw configuration item: the direct output of extraction, before
/// normalization into a [`ConfigEntity`](crate::ConfigEntity).
///
/// Items keep the value exactly as it appeared in the source so that the
/// model-construction step owns all interpretation (type inference,
/// mutability, typical values).
///
/// # Examples
///
/// ```
/// use cmfuzz_config_model::{ConfigItem, ItemSource};
///
/// let item = ConfigItem::new("max_inflight", "20", ItemSource::Cli);
/// assert_eq!(item.name(), "max_inflight");
/// assert_eq!(item.raw_value(), "20");
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigItem {
    name: String,
    raw_value: String,
    source: ItemSource,
    candidates: Vec<String>,
}

impl ConfigItem {
    /// Creates an item with no declared candidate values.
    #[must_use]
    pub fn new(name: &str, raw_value: &str, source: ItemSource) -> Self {
        ConfigItem {
            name: name.to_owned(),
            raw_value: raw_value.to_owned(),
            source,
            candidates: Vec::new(),
        }
    }

    /// Attaches candidate values declared by the source, e.g. the
    /// alternatives of an enumerated CLI option (`--qos {0,1,2}`) or a
    /// numeric range hint (`<1-100>`). These seed the entity's *Values*
    /// attribute.
    #[must_use]
    pub fn with_candidates<I, S>(mut self, candidates: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.candidates = candidates.into_iter().map(Into::into).collect();
        self
    }

    /// Item name as it appeared in the source (without leading dashes).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Raw default value text; empty for bare flags.
    #[must_use]
    pub fn raw_value(&self) -> &str {
        &self.raw_value
    }

    /// Which source the item came from.
    #[must_use]
    pub fn source(&self) -> &ItemSource {
        &self.source
    }

    /// Candidate values declared by the source.
    #[must_use]
    pub fn candidates(&self) -> &[String] {
        &self.candidates
    }
}

impl fmt::Display for ConfigItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={} ({})", self.name, self.raw_value, self.source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let item = ConfigItem::new("port", "1883", ItemSource::Cli);
        assert_eq!(item.name(), "port");
        assert_eq!(item.raw_value(), "1883");
        assert_eq!(item.source(), &ItemSource::Cli);
        assert!(item.candidates().is_empty());
    }

    #[test]
    fn candidates_attach() {
        let item = ConfigItem::new("qos", "0", ItemSource::Cli).with_candidates(["0", "1", "2"]);
        assert_eq!(item.candidates(), &["0", "1", "2"]);
    }

    #[test]
    fn display_includes_source() {
        let item = ConfigItem::new(
            "cache",
            "150",
            ItemSource::File {
                name: "dnsmasq.conf".to_owned(),
            },
        );
        assert_eq!(item.to_string(), "cache=150 (file:dnsmasq.conf)");
        assert_eq!(
            ConfigItem::new("v", "", ItemSource::Cli).to_string(),
            "v= (cli)"
        );
    }
}
