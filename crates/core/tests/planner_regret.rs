//! The join order's regret gate on the paper's §2 transport query
//! (`builders::transport_query`): connections along a line of cities,
//! each service typed by a `partOf` chain up to `transportService`.
//!
//! The greedy pick joins the recursive `conn` rule from its delta, so
//! the chase examines a constant number of candidate tuples per atom it
//! derives, whatever the network's size. A join order that leads with
//! the wrong atom walks every city's services once per derived atom,
//! which grows with the line (51, 101 and 201 probes per atom at 50, 100
//! and 200 cities): the bound below is the gate against that.

use triq::datalog::builders::transport_query;
use triq::datalog::reference::naive_chase;
use triq::prelude::*;
use triq::rdf::{transport_graph, TransportSpec};

/// Join probes allowed per derived atom, at every size.
const MAX_PROBES_PER_ATOM: f64 = 4.0;

#[test]
fn transport_probes_per_derived_atom_stay_flat() {
    let q = transport_query();
    let runner = ChaseRunner::new(q.program.clone(), ChaseConfig::default()).unwrap();
    for cities in [50, 100, 200] {
        let db = tau_db(&transport_graph(TransportSpec {
            cities,
            operators: 3,
            part_of_depth: 2,
        }));
        let out = runner.run(&db).unwrap();
        let answers = Answers::from_chase(&out, q.output);
        assert_eq!(answers.len(), cities * (cities - 1) / 2, "{cities} cities");
        let per_atom = out.stats.probes as f64 / out.stats.derived as f64;
        assert!(
            per_atom <= MAX_PROBES_PER_ATOM,
            "{cities} cities: {} probes for {} derived atoms ({per_atom:.1} per atom)",
            out.stats.probes,
            out.stats.derived
        );
        if cities == 50 {
            let naive = naive_chase(&db, &q.program, ChaseConfig::default()).unwrap();
            assert_eq!(answers, naive.answers(q.output), "the reference disagrees");
        }
    }
}
