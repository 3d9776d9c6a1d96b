//! The one `key=value` reader: job lines, stream header and op lines,
//! and every command line read their options through [`Options`].
//!
//! [`Options::line`] reads a script line of whitespace-separated
//! `key=value` tokens (blank and `#` lines yield nothing);
//! [`Options::argv`] reads `--key value` and bare `--flag` arguments.
//! One rule set covers both: a repeated key is an error, a value that
//! does not parse names its key, and [`Options::finish`] refuses the
//! first key the caller never read — so a misspelt or retired option
//! fails instead of silently running with a default.

use std::cell::Cell;
use std::str::FromStr;

/// The options of one script line or command line: `(key, value,
/// read)` in the order given, a bare `--flag` having no value.
#[derive(Debug)]
pub struct Options<'a> {
    entries: Vec<(&'a str, Option<&'a str>, Cell<bool>)>,
    /// Spelling for messages: `--key` (argv) or `key=` (script line).
    argv: bool,
}

impl<'a> Options<'a> {
    /// Read a script line of whitespace-separated `key=value` tokens.
    /// Blank lines and `#` comments yield `None`.
    pub fn line(line: &'a str) -> Result<Option<Options<'a>>, String> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(None);
        }
        let mut opts = Options::new(false);
        for tok in line.split_whitespace() {
            let (key, value) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got '{tok}'"))?;
            opts.push(key, Some(value))?;
        }
        Ok(Some(opts))
    }

    /// Read command-line arguments: `--key value`, or a bare `--flag`
    /// when the next argument is another option (or there is none).
    pub fn argv(args: &'a [String]) -> Result<Options<'a>, String> {
        let mut opts = Options::new(true);
        let mut args = args.iter().peekable();
        while let Some(a) = args.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| format!("expected an option, got '{a}'"))?;
            let value = args.next_if(|v| !v.starts_with("--"));
            opts.push(key, value.map(String::as_str))?;
        }
        Ok(opts)
    }

    fn new(argv: bool) -> Options<'a> {
        Options {
            entries: Vec::new(),
            argv,
        }
    }

    fn push(&mut self, key: &'a str, value: Option<&'a str>) -> Result<(), String> {
        if self.entries.iter().any(|e| e.0 == key) {
            return Err(format!("{} given more than once", self.spell(key)));
        }
        self.entries.push((key, value, Cell::new(false)));
        Ok(())
    }

    /// `--key` or `key=`, as the user wrote it.
    fn spell(&self, key: &str) -> String {
        if self.argv {
            format!("--{key}")
        } else {
            format!("{key}=")
        }
    }

    /// Read `key`: `None` when absent, `Some(None)` for a bare flag,
    /// `Some(Some(value))` otherwise.
    pub fn lookup(&self, key: &str) -> Option<Option<&'a str>> {
        let (_, value, read) = self.entries.iter().find(|e| e.0 == key)?;
        read.set(true);
        Some(*value)
    }

    /// Read `key`'s value; a bare `--flag` is an error.
    pub fn get(&self, key: &str) -> Result<Option<&'a str>, String> {
        match self.lookup(key) {
            Some(None) => Err(format!("{} needs a value", self.spell(key))),
            Some(v) => Ok(v),
            None => Ok(None),
        }
    }

    /// Read and parse `key`'s value, naming the key if it does not
    /// parse.
    pub fn parse<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let Some(v) = self.get(key)? else {
            return Ok(None);
        };
        let sep = if self.argv { " " } else { "" };
        v.parse()
            .map(Some)
            .map_err(|_| format!("cannot parse '{}{sep}{v}'", self.spell(key)))
    }

    /// [`Options::parse`] with a default for an absent key.
    pub fn parse_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parse(key)?.unwrap_or(default))
    }

    /// Read a bare `--flag`; a flag given a value is an error.
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        match self.lookup(key) {
            Some(Some(v)) => Err(format!("{} takes no value, got '{v}'", self.spell(key))),
            found => Ok(found.is_some()),
        }
    }

    /// Refuse the first option nothing read: `"{what} does not take
    /// --key"` (or `key=`). Call once every option has been read.
    pub fn finish(&self, what: &str) -> Result<(), String> {
        match self.entries.iter().find(|e| !e.2.get()) {
            Some(e) => Err(format!("{what} does not take {}", self.spell(e.0))),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn lines_read_key_value_tokens_and_skip_blanks_and_comments() {
        let o = Options::line("  batch=b0 objects=12 ").unwrap().unwrap();
        assert_eq!(o.get("batch").unwrap(), Some("b0"));
        assert_eq!(o.parse::<u64>("objects").unwrap(), Some(12));
        assert_eq!(o.parse_or("seed", 7u64).unwrap(), 7);
        o.finish("batch").unwrap();
        assert!(Options::line("").unwrap().is_none());
        assert!(Options::line("   ").unwrap().is_none());
        assert!(Options::line("# a comment").unwrap().is_none());
        let err = Options::line("objects").unwrap_err();
        assert!(err.contains("expected key=value"), "{err}");
    }

    #[test]
    fn lines_reject_a_repeated_key_naming_it() {
        let err = Options::line("objects=1 seed=2 objects=3").unwrap_err();
        assert_eq!(err, "objects= given more than once");
    }

    #[test]
    fn lines_name_an_unread_key_and_an_unparseable_value() {
        let o = Options::line("append=3 seed=1 objects=9").unwrap().unwrap();
        o.get("append").unwrap();
        o.get("seed").unwrap();
        assert_eq!(
            o.finish("append").unwrap_err(),
            "append does not take objects="
        );
        let o = Options::line("objects=ten").unwrap().unwrap();
        assert_eq!(
            o.parse::<u64>("objects").unwrap_err(),
            "cannot parse 'objects=ten'"
        );
    }

    #[test]
    fn argv_reads_pairs_and_flags() {
        let a = argv(&[
            "--alg",
            "grace",
            "--threads",
            "--objects",
            "100",
            "--sample",
        ]);
        let o = Options::argv(&a).unwrap();
        assert_eq!(o.get("alg").unwrap(), Some("grace"));
        assert!(o.flag("threads").unwrap());
        assert!(!o.flag("modern").unwrap());
        assert_eq!(o.parse_or("objects", 0u64).unwrap(), 100);
        assert_eq!(o.parse_or("missing", 7u64).unwrap(), 7);
        assert_eq!(o.lookup("sample"), Some(None));
        o.finish("join").unwrap();
    }

    #[test]
    fn argv_rejects_an_unknown_key_naming_it() {
        let a = argv(&["--jobs", "4", "--fualt-spec", "x"]);
        let o = Options::argv(&a).unwrap();
        assert_eq!(o.parse_or("jobs", 16u64).unwrap(), 4);
        assert_eq!(o.get("fault-spec").unwrap(), None);
        assert_eq!(
            o.finish("chaos").unwrap_err(),
            "chaos does not take --fualt-spec"
        );
    }

    #[test]
    fn argv_rejects_a_bad_number_naming_the_key() {
        let a = argv(&["--jobs", "sixteen"]);
        let o = Options::argv(&a).unwrap();
        assert_eq!(
            o.parse_or("jobs", 16u64).unwrap_err(),
            "cannot parse '--jobs sixteen'"
        );
    }

    #[test]
    fn argv_rejects_a_repeated_key_naming_it() {
        for a in [
            argv(&["--alg", "grace", "--alg", "naive"]),
            argv(&["--threads", "--threads"]),
            argv(&["--alg", "grace", "--alg"]),
        ] {
            let err = Options::argv(&a).unwrap_err();
            assert_eq!(err, format!("{} given more than once", a[0]));
        }
    }

    #[test]
    fn argv_rejects_positionals_and_misplaced_values() {
        let a = argv(&["oops"]);
        assert!(Options::argv(&a).unwrap_err().contains("'oops'"));
        let a = argv(&["--resume", "yes", "--jobs"]);
        let o = Options::argv(&a).unwrap();
        assert!(o.flag("resume").unwrap_err().contains("takes no value"));
        assert!(o.get("jobs").unwrap_err().contains("--jobs needs a value"));
    }
}
