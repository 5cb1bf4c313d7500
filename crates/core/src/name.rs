//! Structured diagnostic names.
//!
//! Tasks and promises may carry a human-readable name that shows up in
//! alarms, error messages and the event log.  Most promises are created and
//! fulfilled without their name ever being read, so a [`Name`] records *how
//! to write* the name rather than the written string: cloning one is a
//! reference-count bump, and text is produced only where a name is read
//! ([`Display`](std::fmt::Display), [`Name::render`]).
//!
//! The structured variants exist for the two places the runtime derives
//! names in bulk: cell *n* of a labelled channel (`label[n]`) and the
//! completion promise of a named task (`task::completion`).  Both share the
//! base string with every sibling, so a labelled channel or a named spawn
//! costs one string allocation in total, not one per message or per promise.
//! A `Name` is four words, so that promise records and event-log records,
//! which both embed one, stay the size they were.

use std::fmt;
use std::sync::Arc;

/// A task's or promise's diagnostic name.
#[derive(Clone)]
pub enum Name {
    /// A caller-chosen name, as given.
    Plain(Arc<str>),
    /// `base[index]`: element `index` of a labelled sequence.
    Indexed(Arc<str>, u64),
    /// `task::completion`: the completion promise of the task named `task`.
    Completion(Arc<str>),
}

impl Name {
    /// A [`Name::Plain`] holding a copy of `name` (one allocation).
    pub fn plain(name: &str) -> Name {
        Name::Plain(Arc::from(name))
    }

    /// The name as a shared string.  Free for [`Name::Plain`]; the derived
    /// variants format into a fresh allocation.
    pub fn render(&self) -> Arc<str> {
        match self {
            Name::Plain(name) => Arc::clone(name),
            derived => Arc::from(derived.to_string()),
        }
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Name::Plain(name) => f.write_str(name),
            Name::Indexed(base, index) => write!(f, "{base}[{index}]"),
            Name::Completion(task) => write!(f, "{task}::completion"),
        }
    }
}

/// Renders like the string it stands for, so `Option<Name>` reads in a
/// `Debug` dump exactly as the `Option<Arc<str>>` it replaced.
impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.to_string(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_variant_renders_the_string_it_replaced() {
        let base: Arc<str> = Arc::from("sieve-after-7");
        assert_eq!(Name::plain("r").to_string(), "r");
        assert_eq!(
            Name::Indexed(Arc::clone(&base), 123).to_string(),
            format!("{}[{}]", "sieve-after-7", 123)
        );
        assert_eq!(
            Name::Completion(Arc::from("heat-chunk-3")).to_string(),
            format!("{}::completion", "heat-chunk-3")
        );
        assert_eq!(&*Name::Indexed(base, 0).render(), "sieve-after-7[0]");
    }

    #[test]
    fn a_name_is_four_words() {
        assert_eq!(std::mem::size_of::<Option<Name>>(), 32);
    }

    #[test]
    fn rendering_a_plain_name_shares_its_string() {
        let shared: Arc<str> = Arc::from("worker");
        let name = Name::Plain(Arc::clone(&shared));
        assert!(Arc::ptr_eq(&name.render(), &shared));
    }

    #[test]
    fn debug_matches_the_string_form() {
        let name = Some(Name::Indexed(Arc::from("ch\"x"), 2));
        let string: Option<Arc<str>> = Some(Arc::from("ch\"x[2]"));
        assert_eq!(format!("{name:?}"), format!("{string:?}"));
    }
}
