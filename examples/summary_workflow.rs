//! The summary lifecycle: build once, persist, load elsewhere, estimate
//! with XPath queries, and EXPLAIN an estimate.
//!
//! ```text
//! cargo run --release --example summary_workflow
//! ```

use twig_core::{explain_summary, Algorithm, CountKind, Cst, CstConfig, SpaceBudget};
use twig_datagen::{generate_dblp, DblpConfig};
use twig_flat::{writer, FlatCst};
use twig_tree::{parse_xpath, DataTree};

fn main() {
    // An "offline statistics job" builds the summary from the corpus…
    let xml =
        generate_dblp(&DblpConfig { target_bytes: 1 << 20, seed: 1234, ..DblpConfig::default() });
    let tree = DataTree::from_xml(&xml).expect("well-formed");
    let cst = Cst::build(
        &tree,
        &CstConfig { budget: SpaceBudget::Fraction(0.08), ..CstConfig::default() },
    )
    .expect("CST config is valid");
    let stored = writer::pack(&cst).expect("pack");
    println!(
        "summary built: {} nodes, {} bytes on disk (corpus was {} bytes)",
        cst.node_count(),
        stored.len(),
        xml.len()
    );

    // …and the optimizer process loads it later, without the corpus.
    drop(cst);
    drop(tree);
    let cst = FlatCst::from_bytes(stored).expect("valid flat summary");

    // Queries arrive as XPath.
    for xpath in [
        r#"/dblp/article[author="S"]"#,
        r#"//article[journal="TODS"][year="199"]"#,
        r#"/dblp/book[publisher="Morgan"]/author"#,
    ] {
        let query = parse_xpath(xpath).expect("valid XPath subset");
        let estimate = cst.estimate(&query, Algorithm::Msh, CountKind::Occurrence);
        println!("\n{xpath}\n  as twig: {query}\n  estimate: {estimate:.1}");
    }

    // EXPLAIN one of them: which subpaths parsed, which twiglets formed,
    // and every conditioning factor.
    let query = parse_xpath(r#"/dblp/article[author="S"][journal="TODS"]"#).unwrap();
    println!("\n{}", explain_summary(&cst, &query, Algorithm::Msh, CountKind::Occurrence));
}
