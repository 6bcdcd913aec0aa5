//! UCF (user constraints file) parser: the `LOC` and
//! `AREA_GROUP`/`RANGE` constraints JPG reads to learn where a module is
//! floorplanned.
//!
//! Supported statements (the floorplanning subset):
//!
//! ```text
//! INST "u1/nrz" LOC = "CLB_R3C23.S0" ;
//! NET  "clk"    LOC = "IOB_R0C6.P2" ;
//! INST "mod1/*" AREA_GROUP = "AG_mod1" ;
//! AREA_GROUP "AG_mod1" RANGE = CLB_R1C1:CLB_R8C8 ;
//! ```
//!
//! Instance patterns use `*` (any run) and `?` (one character) globs, as
//! in the vendor tools.

use std::collections::HashMap;
use std::fmt;
use virtex::{IobCoord, SliceCoord, TileCoord};

/// An inclusive rectangle of CLB tiles: a floorplanning region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Top row (0-based, inclusive).
    pub row0: i32,
    /// Left column (inclusive).
    pub col0: i32,
    /// Bottom row (inclusive).
    pub row1: i32,
    /// Right column (inclusive).
    pub col1: i32,
}

impl Rect {
    /// Construct, normalizing corner order.
    pub fn new(row0: i32, col0: i32, row1: i32, col1: i32) -> Self {
        Rect {
            row0: row0.min(row1),
            col0: col0.min(col1),
            row1: row0.max(row1),
            col1: col0.max(col1),
        }
    }

    /// Whether `t` is inside the region.
    pub fn contains(&self, t: TileCoord) -> bool {
        (self.row0..=self.row1).contains(&t.row) && (self.col0..=self.col1).contains(&t.col)
    }

    /// Width in columns.
    pub fn width(&self) -> usize {
        (self.col1 - self.col0 + 1) as usize
    }

    /// Height in rows.
    pub fn height(&self) -> usize {
        (self.row1 - self.row0 + 1) as usize
    }

    /// CLB tiles inside, row-major.
    pub fn tiles(&self) -> impl Iterator<Item = TileCoord> + '_ {
        (self.row0..=self.row1)
            .flat_map(move |r| (self.col0..=self.col1).map(move |c| TileCoord::new(r, c)))
    }

    /// Column indices covered. Only in-fabric (non-negative) columns are
    /// yielded: a region touching the IOB ring at column -1 must not wrap
    /// to `usize::MAX` and claim ~2^64 columns.
    pub fn cols(&self) -> impl Iterator<Item = usize> + '_ {
        (self.col0.max(0)..=self.col1).map(|c| c as usize)
    }

    /// The `CLB_RxCy:CLB_RxCy` range syntax.
    pub fn to_range_string(&self) -> String {
        format!(
            "CLB_R{}C{}:CLB_R{}C{}",
            self.row0 + 1,
            self.col0 + 1,
            self.row1 + 1,
            self.col1 + 1
        )
    }

    /// Parse the `CLB_RxCy:CLB_RxCy` range syntax.
    pub fn parse_range(s: &str) -> Option<Rect> {
        let (a, b) = s.split_once(':')?;
        let pa = parse_clb_corner(a)?;
        let pb = parse_clb_corner(b)?;
        Some(Rect::new(pa.row, pa.col, pb.row, pb.col))
    }
}

fn parse_clb_corner(s: &str) -> Option<TileCoord> {
    let s = s.trim().strip_prefix("CLB_R")?;
    let (r, c) = s.split_once('C')?;
    let row: i32 = r.parse().ok()?;
    let col: i32 = c.parse().ok()?;
    if row < 1 || col < 1 {
        return None;
    }
    Some(TileCoord::new(row - 1, col - 1))
}

/// A `LOC` target.
#[derive(Debug, Clone, PartialEq)]
pub enum LocTarget {
    /// A slice site (`CLB_R3C23.S0`).
    Slice(SliceCoord),
    /// A CLB tile, either slice (`CLB_R3C23`).
    Tile(TileCoord),
    /// An IOB site (`IOB_R0C6.P2`).
    Iob(IobCoord),
}

impl LocTarget {
    /// Parse any of the supported site syntaxes.
    pub fn parse(s: &str) -> Option<LocTarget> {
        if let Some(sc) = SliceCoord::parse_site_name(s) {
            return Some(LocTarget::Slice(sc));
        }
        if let Some(io) = IobCoord::parse_site_name(s) {
            return Some(LocTarget::Iob(io));
        }
        parse_clb_corner(s).map(LocTarget::Tile)
    }

    /// Render back to site syntax.
    pub fn to_site_string(&self) -> String {
        match self {
            LocTarget::Slice(s) => s.site_name(),
            LocTarget::Tile(t) => format!("CLB_R{}C{}", t.row + 1, t.col + 1),
            LocTarget::Iob(io) => io.site_name(),
        }
    }
}

/// Glob match with `*` and `?`.
pub fn glob_match(pattern: &str, name: &str) -> bool {
    fn rec(p: &[u8], n: &[u8]) -> bool {
        match (p.first(), n.first()) {
            (None, None) => true,
            (Some(b'*'), _) => rec(&p[1..], n) || (!n.is_empty() && rec(p, &n[1..])),
            (Some(b'?'), Some(_)) => rec(&p[1..], &n[1..]),
            (Some(a), Some(b)) if a == b => rec(&p[1..], &n[1..]),
            _ => false,
        }
    }
    rec(pattern.as_bytes(), name.as_bytes())
}

/// A UCF parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UcfError {
    /// 1-based line number.
    pub line: usize,
    /// Message.
    pub message: String,
}

impl fmt::Display for UcfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "UCF error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for UcfError {}

/// Parsed constraints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Constraints {
    /// `INST pattern LOC = site`.
    pub inst_locs: Vec<(String, LocTarget)>,
    /// `NET pattern LOC = site` (pad locks).
    pub net_locs: Vec<(String, LocTarget)>,
    /// `AREA_GROUP name RANGE = rect`.
    pub groups: HashMap<String, Rect>,
    /// `INST pattern AREA_GROUP = name`.
    pub memberships: Vec<(String, String)>,
}

impl Constraints {
    /// Parse UCF text.
    pub fn parse(text: &str) -> Result<Constraints, UcfError> {
        let mut cons = Constraints::default();
        for (ln0, raw) in text.lines().enumerate() {
            let line = ln0 + 1;
            let code = raw.split('#').next().unwrap_or("").trim();
            let code = code.strip_suffix(';').unwrap_or(code).trim();
            if code.is_empty() {
                continue;
            }
            let err = |m: String| UcfError { line, message: m };
            // Tokenize respecting quotes.
            let toks = tokenize(code).map_err(&err)?;
            match toks.first().map(String::as_str) {
                Some("INST") | Some("NET") => {
                    let is_inst = toks[0] == "INST";
                    let pattern = toks
                        .get(1)
                        .ok_or_else(|| err("missing pattern".into()))?
                        .clone();
                    let key = toks.get(2).map(String::as_str);
                    let eq = toks.get(3).map(String::as_str);
                    let val = toks.get(4).cloned();
                    if eq != Some("=") {
                        return Err(err("expected '='".into()));
                    }
                    let val = val.ok_or_else(|| err("missing value".into()))?;
                    match key {
                        Some("LOC") => {
                            let target = LocTarget::parse(&val)
                                .ok_or_else(|| err(format!("bad LOC target {val:?}")))?;
                            if is_inst {
                                cons.inst_locs.push((pattern, target));
                            } else {
                                cons.net_locs.push((pattern, target));
                            }
                        }
                        Some("AREA_GROUP") if is_inst => {
                            cons.memberships.push((pattern, val));
                        }
                        other => {
                            return Err(err(format!("unknown constraint {other:?}")));
                        }
                    }
                }
                Some("AREA_GROUP") => {
                    let name = toks
                        .get(1)
                        .ok_or_else(|| err("missing group name".into()))?
                        .clone();
                    if toks.get(2).map(String::as_str) != Some("RANGE")
                        || toks.get(3).map(String::as_str) != Some("=")
                    {
                        return Err(err("expected RANGE =".into()));
                    }
                    let val = toks.get(4).ok_or_else(|| err("missing range".into()))?;
                    let rect =
                        Rect::parse_range(val).ok_or_else(|| err(format!("bad range {val:?}")))?;
                    cons.groups.insert(name, rect);
                }
                Some("TIMESPEC") | Some("TIMEGRP") => {
                    // Timing constraints are irrelevant to bitstream
                    // generation; accepted and ignored like JPG does.
                }
                Some(other) => {
                    return Err(err(format!("unknown statement {other:?}")));
                }
                None => {}
            }
        }
        Ok(cons)
    }

    /// Render back to UCF text.
    pub fn print(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (p, t) in &self.inst_locs {
            let _ = writeln!(out, "INST \"{p}\" LOC = \"{}\" ;", t.to_site_string());
        }
        for (p, t) in &self.net_locs {
            let _ = writeln!(out, "NET \"{p}\" LOC = \"{}\" ;", t.to_site_string());
        }
        for (p, g) in &self.memberships {
            let _ = writeln!(out, "INST \"{p}\" AREA_GROUP = \"{g}\" ;");
        }
        let mut groups: Vec<_> = self.groups.iter().collect();
        groups.sort_by_key(|(n, _)| n.as_str());
        for (n, r) in groups {
            let _ = writeln!(out, "AREA_GROUP \"{n}\" RANGE = {} ;", r.to_range_string());
        }
        out
    }

    /// The floorplanned region constraining `instance`, via its area
    /// group, if any. First matching membership wins (file order), as in
    /// the vendor tools.
    pub fn region_for(&self, instance: &str) -> Option<Rect> {
        self.memberships
            .iter()
            .find(|(p, _)| glob_match(p, instance))
            .and_then(|(_, g)| self.groups.get(g).copied())
    }

    /// The `LOC` constraint for `instance`, if any.
    pub fn loc_for(&self, instance: &str) -> Option<&LocTarget> {
        self.inst_locs
            .iter()
            .find(|(p, _)| glob_match(p, instance))
            .map(|(_, t)| t)
    }

    /// The `LOC` constraint for a net (pad lock), if any.
    pub fn net_loc_for(&self, net: &str) -> Option<&LocTarget> {
        self.net_locs
            .iter()
            .find(|(p, _)| glob_match(p, net))
            .map(|(_, t)| t)
    }

    /// Union with another constraint set (JPG merges the base-design and
    /// module UCFs). `self` entries take precedence on conflicts.
    pub fn merge(&mut self, other: &Constraints) {
        self.inst_locs.extend(other.inst_locs.iter().cloned());
        self.net_locs.extend(other.net_locs.iter().cloned());
        self.memberships.extend(other.memberships.iter().cloned());
        for (k, v) in &other.groups {
            self.groups.entry(k.clone()).or_insert(*v);
        }
    }
}

fn tokenize(code: &str) -> Result<Vec<String>, String> {
    let mut toks = Vec::new();
    let mut chars = code.chars().peekable();
    while let Some(&c) = chars.peek() {
        if c.is_whitespace() {
            chars.next();
        } else if c == '"' {
            chars.next();
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => break,
                    Some(c) => s.push(c),
                    None => return Err("unterminated string".into()),
                }
            }
            toks.push(s);
        } else if c == '=' {
            chars.next();
            toks.push("=".into());
        } else {
            let mut s = String::new();
            while let Some(&c) = chars.peek() {
                if c.is_whitespace() || c == '=' || c == '"' {
                    break;
                }
                s.push(c);
                chars.next();
            }
            toks.push(s);
        }
    }
    Ok(toks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use virtex::SliceId;

    const SAMPLE: &str = r#"
# Floorplan for the base design
INST "mod1/*" AREA_GROUP = "AG_mod1" ;
INST "mod2/*" AREA_GROUP = "AG_mod2" ;
AREA_GROUP "AG_mod1" RANGE = CLB_R1C1:CLB_R16C10 ;
AREA_GROUP "AG_mod2" RANGE = CLB_R1C11:CLB_R16C20 ;
INST "mod1/ctl" LOC = "CLB_R3C23.S0" ;
NET "clk" LOC = "IOB_R0C6.P2" ;
TIMESPEC "TS_clk" = PERIOD "clk" 20 ns ;
"#;

    #[test]
    fn parses_floorplan() {
        let c = Constraints::parse(SAMPLE).unwrap();
        assert_eq!(c.groups.len(), 2);
        assert_eq!(c.groups["AG_mod1"], Rect::new(0, 0, 15, 9));
        assert_eq!(c.region_for("mod1/u5/lut"), Some(Rect::new(0, 0, 15, 9)));
        assert_eq!(c.region_for("mod2/x"), Some(Rect::new(0, 10, 15, 19)));
        assert_eq!(c.region_for("other"), None);
        assert_eq!(
            c.loc_for("mod1/ctl"),
            Some(&LocTarget::Slice(SliceCoord::new(
                TileCoord::new(2, 22),
                SliceId::S0
            )))
        );
        assert!(matches!(c.net_loc_for("clk"), Some(LocTarget::Iob(_))));
    }

    #[test]
    fn print_parse_roundtrip() {
        let c = Constraints::parse(SAMPLE).unwrap();
        let text = c.print();
        let c2 = Constraints::parse(&text).unwrap();
        assert_eq!(c.groups, c2.groups);
        assert_eq!(c.inst_locs, c2.inst_locs);
        assert_eq!(c.net_locs, c2.net_locs);
        assert_eq!(c.memberships, c2.memberships);
    }

    #[test]
    fn glob_semantics() {
        assert!(glob_match("mod1/*", "mod1/a/b"));
        assert!(glob_match("*", "anything"));
        assert!(glob_match("a?c", "abc"));
        assert!(!glob_match("a?c", "ac"));
        assert!(!glob_match("mod1/*", "mod2/a"));
        assert!(glob_match("", ""));
        assert!(!glob_match("", "x"));
    }

    #[test]
    fn rect_behaviour() {
        let r = Rect::new(5, 8, 2, 3); // corners in any order
        assert_eq!(r, Rect::new(2, 3, 5, 8));
        assert!(r.contains(TileCoord::new(3, 5)));
        assert!(!r.contains(TileCoord::new(6, 5)));
        assert_eq!(r.width(), 6);
        assert_eq!(r.height(), 4);
        assert_eq!(r.tiles().count(), 24);
        assert_eq!(Rect::parse_range(&r.to_range_string()), Some(r));
        assert_eq!(Rect::parse_range("CLB_R0C1:CLB_R2C2"), None);
        assert_eq!(Rect::parse_range("garbage"), None);
    }

    #[test]
    fn cols_clamp_negative_columns_instead_of_wrapping() {
        // Regression: `-1 as usize` is 2^64 - 1, so a region touching
        // the IOB ring used to yield a column iterator that started at
        // usize::MAX.
        let r = Rect::new(0, -1, 3, 2);
        assert_eq!(r.cols().collect::<Vec<_>>(), vec![0, 1, 2]);
        let all_ring = Rect::new(0, -2, 3, -1);
        assert_eq!(all_ring.cols().count(), 0);
        let normal = Rect::new(0, 1, 3, 4);
        assert_eq!(normal.cols().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn merge_prefers_self() {
        let mut a = Constraints::parse("AREA_GROUP \"G\" RANGE = CLB_R1C1:CLB_R2C2 ;").unwrap();
        let b = Constraints::parse(
            "AREA_GROUP \"G\" RANGE = CLB_R5C5:CLB_R6C6 ;\nAREA_GROUP \"H\" RANGE = CLB_R1C1:CLB_R1C1 ;",
        )
        .unwrap();
        a.merge(&b);
        assert_eq!(a.groups["G"], Rect::new(0, 0, 1, 1));
        assert_eq!(a.groups["H"], Rect::new(0, 0, 0, 0));
    }

    #[test]
    fn error_line_numbers() {
        let err = Constraints::parse("\n\nBOGUS \"x\" ;").unwrap_err();
        assert_eq!(err.line, 3);
        let err =
            Constraints::parse("\nNET \"clk\" LOC = \"IOB_R-2147483648C1.P0\" ;").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("bad LOC target"), "{err:?}");
    }
}
