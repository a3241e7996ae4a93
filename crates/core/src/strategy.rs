//! The seven design strategies of the paper's evaluation (§6), behind one
//! dispatch point.

use crate::{af, deep, dumc, mc, mcmr, shallow, undr};
use colorist_er::ErGraph;
use colorist_mct::{MctSchema, SchemaError};
use std::fmt;

/// A schema design strategy. The first three are single-color XML (§4), the
/// rest multi-colored MCT (§5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strategy {
    /// Figure 4: single color, association recoverable, not node normal.
    Deep,
    /// Figure 3: single color, node normal, maximal structural coverage.
    Af,
    /// Figure 2: single color, node normal, not association recoverable.
    Shallow,
    /// Algorithm MC (Figure 7): NN + EN + AR.
    En,
    /// Minimal color maximal recoverable (§5.2 heuristic): NN + AR, local
    /// color minimality, best-effort DR.
    Mcmr,
    /// Algorithm DUMC (§5.2): NN + AR + DR (Figure 5 for TPC-W).
    Dr,
    /// §6: DR with selective in-color duplication (not NN).
    Undr,
}

impl Strategy {
    /// The evaluation's presentation order (Table 1 / Figures 8–11).
    pub const ALL: [Strategy; 7] = [
        Strategy::Deep,
        Strategy::Af,
        Strategy::Shallow,
        Strategy::En,
        Strategy::Mcmr,
        Strategy::Dr,
        Strategy::Undr,
    ];

    /// The six strategies used on the ER collection (Figures 12–14 exclude
    /// UNDR, "since there were too many subjective ways in which to
    /// unnormalize each schema").
    pub const COLLECTION: [Strategy; 6] = [
        Strategy::Deep,
        Strategy::Af,
        Strategy::Shallow,
        Strategy::En,
        Strategy::Mcmr,
        Strategy::Dr,
    ];

    /// The label used in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Deep => "DEEP",
            Strategy::Af => "AF",
            Strategy::Shallow => "SHALLOW",
            Strategy::En => "EN",
            Strategy::Mcmr => "MCMR",
            Strategy::Dr => "DR",
            Strategy::Undr => "UNDR",
        }
    }

    /// Parse a label (case-insensitive).
    pub fn parse(s: &str) -> Option<Strategy> {
        Self::ALL.iter().copied().find(|x| x.label().eq_ignore_ascii_case(s))
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Design a schema for `graph` with the given strategy.
///
/// Debug builds run the static schema linter ([`colorist_mct::lint`]) and
/// the `S007` property-checker cross-validation on every designed schema.
pub fn design(graph: &ErGraph, strategy: Strategy) -> Result<MctSchema, SchemaError> {
    let _span = colorist_trace::span("design", format_args!("design:{strategy}"));
    let schema = match strategy {
        Strategy::Deep => deep::deep(graph),
        Strategy::Af => af::af(graph),
        Strategy::Shallow => shallow::shallow(graph),
        Strategy::En => mc::mc(graph),
        Strategy::Mcmr => mcmr::mcmr(graph),
        Strategy::Dr => dumc::dumc(graph),
        Strategy::Undr => undr::undr(graph),
    }?;
    #[cfg(debug_assertions)]
    {
        let diags = colorist_mct::lint::lint_schema(graph, &schema);
        debug_assert!(
            diags.is_empty(),
            "{strategy} schema failed lint:\n{}",
            diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
        let elig = colorist_er::EligibleAssociations::enumerate_default(graph);
        let xv = crate::properties::cross_validate(&schema, graph, &elig);
        debug_assert!(xv.is_empty(), "{strategy} property cross-validation:\n{}", xv.join("\n"));
    }
    Ok(schema)
}

/// Design all seven schemas (the per-diagram schema family of §6).
pub fn design_all(graph: &ErGraph) -> Result<Vec<(Strategy, MctSchema)>, SchemaError> {
    Strategy::ALL.iter().map(|&s| design(graph, s).map(|schema| (s, schema))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use colorist_er::catalog;

    #[test]
    fn labels_round_trip() {
        for s in Strategy::ALL {
            assert_eq!(Strategy::parse(s.label()), Some(s));
            assert_eq!(Strategy::parse(&s.label().to_lowercase()), Some(s));
        }
        assert_eq!(Strategy::parse("nope"), None);
    }

    #[test]
    fn all_strategies_design_tpcw() {
        let g = ErGraph::from_diagram(&catalog::tpcw()).unwrap();
        let all = design_all(&g).unwrap();
        assert_eq!(all.len(), 7);
        for (s, schema) in &all {
            assert_eq!(schema.strategy, s.label());
            assert_eq!(schema.diagram, "tpcw");
        }
        // paper's Table 1 color counts: DEEP/AF/SHALLOW 1, EN/MCMR 2
        let colors: Vec<(Strategy, usize)> =
            all.iter().map(|(s, sch)| (*s, sch.color_count())).collect();
        for (s, c) in &colors {
            match s {
                Strategy::Deep | Strategy::Af | Strategy::Shallow => assert_eq!(*c, 1, "{s}"),
                Strategy::En | Strategy::Mcmr => assert_eq!(*c, 2, "{s}"),
                Strategy::Dr | Strategy::Undr => assert!(*c >= 2, "{s}"),
            }
        }
    }

    #[test]
    fn sixty_six_schemas_like_the_paper() {
        // §6.2: 11 diagrams x 6 strategies = 66 schemas (paper excludes
        // UNDR). With TPC-W the collection has 12; we check the 6-strategy
        // sweep completes everywhere.
        let mut count = 0;
        for name in catalog::COLLECTION {
            let g = ErGraph::from_diagram(&catalog::by_name(name).unwrap()).unwrap();
            for s in Strategy::COLLECTION {
                design(&g, s).unwrap_or_else(|e| panic!("{name}/{s}: {e}"));
                count += 1;
            }
        }
        assert_eq!(count, 72);
    }
}
