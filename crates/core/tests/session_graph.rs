//! `Session::graph()` is a view, not stored state: the `triple/3` facts
//! of the session database read back as triples (the inverse of `τ_db`).
//! It therefore follows every mutation and is there after a recovery.

use triq::persist::{decode_snapshot, encode_snapshot};
use triq::prelude::*;

#[test]
fn the_graph_is_read_back_from_the_database() {
    let engine = Engine::new();
    let mut session = engine.load_turtle("a knows b .\n b knows c .").unwrap();
    assert_eq!(
        session.graph(),
        parse_turtle("a knows b .\n b knows c .").unwrap()
    );

    session.insert_triple("c", "knows", "d");
    assert!(session.remove_triple("a", "knows", "b"));
    session.apply_delta(&Delta::new().insert("triple", &["d", "knows", "a"]));
    // Facts outside the τ_db bridge are not triples.
    session.add_fact("edge", &["x", "y", "z"]);
    session.add_fact("triple", &["too", "short"]);
    let expected = parse_turtle("b knows c .\n c knows d .\n d knows a .").unwrap();
    assert_eq!(session.graph(), expected);

    // A recovered session never saw a `Graph`; it answers the same.
    let (bytes, _) = encode_snapshot(&session.into_shared());
    let mut recovered = decode_snapshot(&Engine::new(), &bytes).unwrap();
    assert_eq!(recovered.graph(), expected);
    assert!(recovered.remove_triple("d", "knows", "a"));
    assert_eq!(recovered.graph().len(), 2);
}
