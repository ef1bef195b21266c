//! The generalized configuration model and Algorithm 1.

use std::collections::HashMap;
use std::fmt;

use crate::extract::{
    detect_format, extract_cli, extract_custom, extract_json, extract_key_value, extract_toml,
    extract_xml, extract_yaml, FileFormat, ParseRules,
};
use crate::{ConfigEntity, ConfigItem};

/// One configuration file belonging to a protocol's configuration surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigFile {
    /// File name, used for format detection and provenance.
    pub name: String,
    /// File content.
    pub content: String,
}

impl ConfigFile {
    /// Creates a configuration file description.
    #[must_use]
    pub fn named(name: &str, content: &str) -> Self {
        ConfigFile {
            name: name.to_owned(),
            content: content.to_owned(),
        }
    }
}

/// A protocol's complete configuration surface: the two inputs of
/// Algorithm 1 (`C_options` and `C_files`).
///
/// # Examples
///
/// ```
/// use cmfuzz_config_model::{ConfigSpace, ConfigFile};
///
/// let space = ConfigSpace {
///     cli: vec!["--port=5683".to_owned()],
///     files: vec![ConfigFile::named("coap.conf", "block-mode none\n")],
/// };
/// assert_eq!(space.cli.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConfigSpace {
    /// CLI option declarations (one per line, help-text style accepted).
    pub cli: Vec<String>,
    /// Configuration files in any supported format.
    pub files: Vec<ConfigFile>,
}

/// The generalized configuration model: the set of [`ConfigEntity`]s
/// extracted from a protocol (paper §III-A2).
///
/// Entity names are unique; when the same name appears in multiple sources,
/// the first extraction wins (CLI options are processed before files,
/// following Algorithm 1's order).
///
/// # Examples
///
/// ```
/// use cmfuzz_config_model::{extract_model, ConfigSpace};
///
/// let space = ConfigSpace {
///     cli: vec!["--retries=3".to_owned()],
///     files: vec![],
/// };
/// let model = extract_model(&space);
/// assert!(model.entity("retries").is_some());
/// assert_eq!(model.mutable_entities().count(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConfigModel {
    entities: Vec<ConfigEntity>,
    by_name: HashMap<String, usize>,
}

impl ConfigModel {
    /// Creates an empty model.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a model from entities, dropping duplicates by name (first
    /// occurrence wins).
    #[must_use]
    pub fn from_entities<I: IntoIterator<Item = ConfigEntity>>(entities: I) -> Self {
        let mut model = ConfigModel::new();
        for entity in entities {
            model.insert(entity);
        }
        model
    }

    /// Inserts an entity; returns `false` (and drops it) if the name is
    /// already present.
    pub fn insert(&mut self, entity: ConfigEntity) -> bool {
        if self.by_name.contains_key(entity.name()) {
            return false;
        }
        self.by_name
            .insert(entity.name().to_owned(), self.entities.len());
        self.entities.push(entity);
        true
    }

    /// Looks up an entity by name.
    #[must_use]
    pub fn entity(&self, name: &str) -> Option<&ConfigEntity> {
        self.by_name.get(name).map(|&i| &self.entities[i])
    }

    /// All entities in extraction order.
    #[must_use]
    pub fn entities(&self) -> &[ConfigEntity] {
        &self.entities
    }

    /// Iterates over the entities whose *Flag* is MUTABLE.
    pub fn mutable_entities(&self) -> impl Iterator<Item = &ConfigEntity> {
        self.entities.iter().filter(|e| e.is_mutable())
    }

    /// Number of entities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entities.len()
    }

    /// Whether the model has no entities.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entities.is_empty()
    }
}

impl fmt::Display for ConfigModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ConfigModel ({} entities)", self.entities.len())?;
        for entity in &self.entities {
            writeln!(f, "  {entity}")?;
        }
        Ok(())
    }
}

impl FromIterator<ConfigEntity> for ConfigModel {
    fn from_iter<I: IntoIterator<Item = ConfigEntity>>(iter: I) -> Self {
        ConfigModel::from_entities(iter)
    }
}

impl Extend<ConfigEntity> for ConfigModel {
    fn extend<I: IntoIterator<Item = ConfigEntity>>(&mut self, iter: I) {
        for entity in iter {
            self.insert(entity);
        }
    }
}

/// Extracts the generalized configuration model from a protocol's
/// configuration surface — Algorithm 1 of the paper, followed by the
/// model-construction step of §III-A2.
///
/// CLI options are extracted with the pattern-matching parser; each file's
/// format is detected and dispatched to the matching extractor (key-value,
/// hierarchical JSON/XML/YAML, or heuristic custom rules); every raw item is
/// then normalized into a [`ConfigEntity`].
///
/// # Examples
///
/// ```
/// use cmfuzz_config_model::{extract_model, ConfigSpace, ConfigFile};
///
/// let space = ConfigSpace {
///     cli: vec!["--verbose".to_owned()],
///     files: vec![ConfigFile::named("c.json", r#"{"depth": 4}"#)],
/// };
/// let model = extract_model(&space);
/// assert_eq!(model.len(), 2);
/// ```
#[must_use]
pub fn extract_model(space: &ConfigSpace) -> ConfigModel {
    let mut items: Vec<ConfigItem> = Vec::new();
    // Lines 8-10: CLI options.
    items.extend(extract_cli(&space.cli));
    // Lines 11-21: files, dispatched by detected format.
    for file in &space.files {
        let format = detect_format(&file.name, &file.content);
        let file_items = match format {
            FileFormat::KeyValue => extract_key_value(&file.name, &file.content),
            FileFormat::Json => extract_json(&file.name, &file.content),
            FileFormat::Xml => extract_xml(&file.name, &file.content),
            FileFormat::Yaml => extract_yaml(&file.name, &file.content),
            FileFormat::Toml => extract_toml(&file.name, &file.content),
            FileFormat::Custom => extract_custom(&file.name, &file.content, &ParseRules::new()),
        };
        items.extend(file_items);
    }
    items.iter().map(ConfigEntity::from_item).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ConfigValue, Mutability, ValueType};

    #[test]
    fn extracts_from_cli_and_files() {
        let space = ConfigSpace {
            cli: vec!["--qos {0,1,2}".to_owned(), "--verbose".to_owned()],
            files: vec![
                ConfigFile::named("b.conf", "persistence true\nmax_queued 100\n"),
                ConfigFile::named("d.json", r#"{"tls": {"enabled": false}}"#),
            ],
        };
        let model = extract_model(&space);
        assert_eq!(model.len(), 5);
        assert_eq!(model.entity("qos").unwrap().value_type(), ValueType::Number);
        assert_eq!(
            model.entity("tls.enabled").unwrap().value_type(),
            ValueType::Boolean
        );
    }

    #[test]
    fn duplicate_names_first_wins() {
        let space = ConfigSpace {
            cli: vec!["--port=1111".to_owned()],
            files: vec![ConfigFile::named("f.conf", "port 2222\n")],
        };
        let model = extract_model(&space);
        assert_eq!(model.len(), 1);
        assert_eq!(
            model.entity("port").unwrap().default_value(),
            &ConfigValue::Int(1111)
        );
    }

    #[test]
    fn mutable_iteration_filters_immutable() {
        let space = ConfigSpace {
            cli: vec![
                "--depth=4".to_owned(),
                "--certfile=/etc/ssl/srv.crt".to_owned(),
            ],
            files: vec![],
        };
        let model = extract_model(&space);
        assert_eq!(model.len(), 2);
        assert_eq!(
            model.entity("certfile").unwrap().mutability(),
            Mutability::Immutable
        );
        let mutable: Vec<_> = model.mutable_entities().map(|e| e.name()).collect();
        assert_eq!(mutable, vec!["depth"]);
    }

    #[test]
    fn empty_space_gives_empty_model() {
        let model = extract_model(&ConfigSpace::default());
        assert!(model.is_empty());
        assert_eq!(model.len(), 0);
    }

    #[test]
    fn insert_rejects_duplicates() {
        let mut model = ConfigModel::new();
        let e = ConfigEntity::new(
            "x",
            ValueType::Number,
            Mutability::Mutable,
            vec![ConfigValue::Int(1)],
        );
        assert!(model.insert(e.clone()));
        assert!(!model.insert(e));
        assert_eq!(model.len(), 1);
    }

    #[test]
    fn display_lists_entities() {
        let space = ConfigSpace {
            cli: vec!["--a=1".to_owned()],
            files: vec![],
        };
        let rendered = extract_model(&space).to_string();
        assert!(rendered.contains("1 entities"));
        assert!(rendered.contains("a : Number"));
    }

    #[test]
    fn collect_and_extend() {
        let e1 = ConfigEntity::new(
            "a",
            ValueType::Number,
            Mutability::Mutable,
            vec![ConfigValue::Int(1)],
        );
        let e2 = ConfigEntity::new(
            "b",
            ValueType::Boolean,
            Mutability::Mutable,
            vec![ConfigValue::Bool(true)],
        );
        let mut model: ConfigModel = vec![e1].into_iter().collect();
        model.extend(vec![e2]);
        assert_eq!(model.len(), 2);
    }

    #[test]
    fn yaml_and_xml_files_route_to_extractors() {
        let space = ConfigSpace {
            cli: vec![],
            files: vec![
                ConfigFile::named("a.yaml", "alpha: 1\n"),
                ConfigFile::named("b.xml", "<C><Beta>2</Beta></C>"),
            ],
        };
        let model = extract_model(&space);
        assert!(model.entity("alpha").is_some());
        assert!(model.entity("C.Beta").is_some());
    }
}
