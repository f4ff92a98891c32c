//! The benchmark's own input generator: everything the server sees is
//! made here from `--seed` — a LUBM-style university ABox, an OWL 2 QL
//! core TBox in the Table 1 RDF encoding, a rule library, and the request
//! bodies of every workload. The same seed gives byte-identical output.
//!
//! Nothing here calls into the engine: the generator also knows, by
//! construction, the answer counts the harness checks analytically.

use std::fmt::Write as _;

/// splitmix64 — the generator owns its random stream so that no change
/// elsewhere in the repository can move the benchmark's inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct indices below `n`, in draw order (`k <= n`).
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut picked = Vec::with_capacity(k);
        while picked.len() < k {
            let i = self.below(n);
            if !picked.contains(&i) {
                picked.push(i);
            }
        }
        picked
    }
}

/// Departments per university: fixes how deep `subOrganizationOf` chains
/// fan out under one root.
const DEPTS_PER_UNIV: usize = 12;

/// Every department has the same shape — these faculty (0 heads it, 1 is
/// the lecturer without a course), [`GRADS`] graduate and [`UNDERGRADS`]
/// undergraduate students — so every seed gives the same amount of work:
/// the seed only picks who teaches, takes and advises what.
const FACULTY: [&str; 10] = [
    "FullProfessor",
    "Lecturer",
    "FullProfessor",
    "AssociateProfessor",
    "AssistantProfessor",
    "Lecturer",
    "FullProfessor",
    "AssociateProfessor",
    "AssistantProfessor",
    "Lecturer",
];
const GRADS: usize = 20;
const UNDERGRADS: usize = 75;

const CLASSES: &[&str] = &[
    "Person",
    "Employee",
    "Faculty",
    "Professor",
    "FullProfessor",
    "AssociateProfessor",
    "AssistantProfessor",
    "Lecturer",
    "Student",
    "GraduateStudent",
    "UndergraduateStudent",
    "Organization",
    "University",
    "Department",
    "ResearchGroup",
    "Course",
    "GraduateCourse",
    "Publication",
];

const PROPERTIES: &[&str] = &[
    "memberOf",
    "worksFor",
    "headOf",
    "teacherOf",
    "takesCourse",
    "advisor",
    "subOrganizationOf",
    "publicationAuthor",
    "degreeFrom",
];

/// `B1 rdfs:subClassOf B2` axioms; `some~p` / `some~p~inv` are the
/// Table 1 URIs of `∃p` / `∃p⁻`.
const SUBCLASS: &[(&str, &str)] = &[
    ("Employee", "Person"),
    ("Faculty", "Employee"),
    ("Professor", "Faculty"),
    ("FullProfessor", "Professor"),
    ("AssociateProfessor", "Professor"),
    ("AssistantProfessor", "Professor"),
    ("Lecturer", "Faculty"),
    ("Student", "Person"),
    ("GraduateStudent", "Student"),
    ("UndergraduateStudent", "Student"),
    ("University", "Organization"),
    ("Department", "Organization"),
    ("ResearchGroup", "Organization"),
    ("GraduateCourse", "Course"),
    ("some~teacherOf", "Faculty"),
    ("some~teacherOf~inv", "Course"),
    ("some~takesCourse", "Student"),
    ("some~advisor~inv", "Professor"),
    ("some~headOf", "Professor"),
    ("some~worksFor~inv", "Organization"),
    ("some~degreeFrom~inv", "University"),
    // Existentials in the head: these make the chase invent nulls.
    ("Professor", "some~teacherOf"),
    ("GraduateStudent", "some~advisor"),
    ("Employee", "some~worksFor"),
];

const SUBPROPERTY: &[(&str, &str)] = &[("headOf", "worksFor"), ("worksFor", "memberOf")];

/// Pairs that never overlap in generated data, so no workload ever makes
/// the dataset inconsistent (`Q(D) = ⊤`).
const DISJOINT: &[(&str, &str)] = &[
    ("Person", "Organization"),
    ("Course", "Person"),
    ("Publication", "Person"),
];

fn triple(out: &mut String, s: &str, p: &str, o: &str) {
    let _ = writeln!(out, "{s} {p} {o} .");
}

/// The OWL 2 QL core TBox as Turtle, in the Table 1 encoding: class and
/// property declarations with their `p~inv` / `some~p` scaffolding, then
/// one triple per axiom.
pub fn tbox_ttl() -> String {
    let mut out = String::new();
    for c in CLASSES {
        triple(&mut out, c, "rdf:type", "owl:Class");
    }
    for p in PROPERTIES {
        let inv = format!("{p}~inv");
        triple(&mut out, p, "rdf:type", "owl:ObjectProperty");
        triple(&mut out, &inv, "rdf:type", "owl:ObjectProperty");
        triple(&mut out, p, "owl:inverseOf", &inv);
        triple(&mut out, &inv, "owl:inverseOf", p);
        for r in [p.to_string(), inv] {
            let some = format!("some~{r}");
            triple(&mut out, &some, "rdf:type", "owl:Restriction");
            triple(&mut out, &some, "owl:onProperty", &r);
            triple(&mut out, &some, "owl:someValuesFrom", "owl:Thing");
            triple(&mut out, &some, "rdf:type", "owl:Class");
        }
    }
    for (a, b) in SUBCLASS {
        triple(&mut out, a, "rdfs:subClassOf", b);
    }
    for (a, b) in SUBPROPERTY {
        triple(&mut out, a, "rdfs:subPropertyOf", b);
    }
    for (a, b) in DISJOINT {
        triple(&mut out, a, "owl:disjointWith", b);
    }
    out
}

/// The rule library installed on the server: one recursive rule (the
/// transitive `partOf` over `subOrganizationOf`, derived back into
/// `triple/3` so SPARQL sees it) and one stratified-negation rule
/// (`idle`: lecturers who teach nothing).
pub const RULES_DL: &str = "\
# recursive: organizational containment, visible to SPARQL as `partOf`
triple(?X, subOrganizationOf, ?Y) -> triple(?X, partOf, ?Y).
triple(?X, subOrganizationOf, ?Y), triple(?Y, partOf, ?Z) -> triple(?X, partOf, ?Z).
# stratified negation: lecturers without a course
triple(?X, teacherOf, ?C) -> teaches(?X).
triple(?X, rdf:type, Lecturer), !teaches(?X) -> idle(?X).
";

/// One department's generated facts the workloads refer back to.
#[derive(Clone, Debug)]
pub struct Dept {
    pub id: String,
    /// All faculty (the head first): the answer to "Faculty working for
    /// this department" under the entailment regimes.
    pub faculty: Vec<String>,
    /// The faculty asserted to be some kind of professor (not lecturers).
    pub professors: Vec<String>,
    /// Lecturers generated without a `teacherOf` triple.
    pub idle_lecturers: Vec<String>,
    pub courses: Vec<String>,
}

/// A generated ABox: Turtle text plus the handles into it.
#[derive(Clone, Debug)]
pub struct Abox {
    pub ttl: String,
    pub triples: usize,
    pub depts: Vec<Dept>,
}

/// Generates departments `first..first + count` (global department
/// numbers; department `n` belongs to university `n / DEPTS_PER_UNIV`).
/// Every statement is distinct, and disjoint ranges give disjoint triple
/// sets, which is what `bulk_load` posts document by document.
pub fn abox(seed: u64, first: usize, count: usize) -> Abox {
    let mut out = String::new();
    let mut triples = 0usize;
    let mut depts = Vec::with_capacity(count);
    let mut t = |out: &mut String, s: &str, p: &str, o: &str| {
        triple(out, s, p, o);
        triples += 1;
    };
    for n in first..first + count {
        // Each department draws from its own stream: a document's content
        // does not depend on which other departments share the call.
        let mut rng = Rng::new(seed.wrapping_mul(0x100_0000_01B3).wrapping_add(n as u64));
        let u = n / DEPTS_PER_UNIV;
        let univ = format!("u{u}");
        let id = format!("u{u}d{}", n % DEPTS_PER_UNIV);
        if n % DEPTS_PER_UNIV == 0 {
            t(&mut out, &univ, "rdf:type", "University");
            t(&mut out, &univ, "name", &format!("\"University {u}\""));
        }
        t(&mut out, &id, "rdf:type", "Department");
        t(&mut out, &id, "subOrganizationOf", &univ);
        t(&mut out, &id, "name", &format!("\"Department {n}\""));
        for g in 0..3 {
            let group = format!("{id}_group{g}");
            t(&mut out, &group, "rdf:type", "ResearchGroup");
            t(&mut out, &group, "subOrganizationOf", &id);
        }
        let courses: Vec<String> = (0..20).map(|c| format!("{id}_course{c}")).collect();
        let grad_courses: Vec<String> = (0..8).map(|c| format!("{id}_gradcourse{c}")).collect();
        for c in &courses {
            t(&mut out, c, "rdf:type", "Course");
        }
        for c in &grad_courses {
            t(&mut out, c, "rdf:type", "GraduateCourse");
        }
        let mut faculty = Vec::new();
        let mut idle_lecturers = Vec::new();
        let mut professors = Vec::new();
        for (i, kind) in FACULTY.iter().enumerate() {
            let f = format!("{id}_faculty{i}");
            t(&mut out, &f, "rdf:type", kind);
            if i == 0 {
                // `worksFor` only follows from headOf ⊑ worksFor.
                t(&mut out, &f, "headOf", &id);
            } else {
                t(&mut out, &f, "worksFor", &id);
            }
            // Professors teach two courses, lecturers one — except
            // faculty 1, who teaches nothing (the negation rule's case).
            let teaches = match (*kind, i) {
                ("Lecturer", 1) => 0,
                ("Lecturer", _) => 1,
                _ => 2,
            };
            for c in rng.distinct(courses.len() + grad_courses.len(), teaches) {
                let c = courses
                    .get(c)
                    .unwrap_or_else(|| &grad_courses[c - courses.len()]);
                t(&mut out, &f, "teacherOf", c);
            }
            t(
                &mut out,
                &f,
                "degreeFrom",
                &format!("u{}", rng.below(u + 1)),
            );
            t(&mut out, &f, "name", &format!("\"Faculty {i} of {id}\""));
            for k in 0..2 {
                let publ = format!("{f}_pub{k}");
                t(&mut out, &publ, "rdf:type", "Publication");
                t(&mut out, &publ, "publicationAuthor", &f);
            }
            if *kind != "Lecturer" {
                professors.push(f.clone());
            } else if teaches == 0 {
                idle_lecturers.push(f.clone());
            }
            faculty.push(f);
        }
        for i in 0..GRADS {
            let s = format!("{id}_grad{i}");
            t(&mut out, &s, "rdf:type", "GraduateStudent");
            t(&mut out, &s, "memberOf", &id);
            // One in five has no asserted advisor: only
            // GraduateStudent ⊑ ∃advisor gives them one (a null).
            if i % 5 != 0 {
                t(
                    &mut out,
                    &s,
                    "advisor",
                    &professors[rng.below(professors.len())],
                );
            }
            for c in rng.distinct(grad_courses.len(), 2) {
                t(&mut out, &s, "takesCourse", &grad_courses[c]);
            }
            t(&mut out, &s, "degreeFrom", &univ);
            t(&mut out, &s, "name", &format!("\"Grad {i} of {id}\""));
        }
        for i in 0..UNDERGRADS {
            let s = format!("{id}_undergrad{i}");
            t(&mut out, &s, "rdf:type", "UndergraduateStudent");
            t(&mut out, &s, "memberOf", &id);
            for c in rng.distinct(courses.len(), 3) {
                t(&mut out, &s, "takesCourse", &courses[c]);
            }
            t(&mut out, &s, "name", &format!("\"Undergrad {i} of {id}\""));
        }
        depts.push(Dept {
            id,
            faculty,
            professors,
            idle_lecturers,
            courses,
        });
    }
    Abox {
        ttl: out,
        triples,
        depts,
    }
}

/// The four query kinds the server distinguishes by request parameters.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Kind {
    /// Plain SPARQL (§3.1).
    Plain,
    /// SPARQL under the OWL 2 QL entailment regime J·K^U (§5.2).
    Ku,
    /// SPARQL under J·K^All (§5.3).
    Kall,
    /// A `lang=datalog` rule program with output predicate `out`.
    Rules,
}

/// One `POST /query` request: the text is the body, the kind picks the
/// query string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Query {
    pub kind: Kind,
    pub text: String,
}

impl Query {
    pub fn path(&self) -> &'static str {
        match self.kind {
            Kind::Plain => "/query",
            Kind::Ku => "/query?regime=ku",
            Kind::Kall => "/query?regime=kall",
            Kind::Rules => "/query?lang=datalog&output=out",
        }
    }

    fn new(kind: Kind, text: String) -> Query {
        Query { kind, text }
    }
}

/// Class/property pairs the `ku` template ranges over.
const KU_VARIANTS: &[(&str, &str)] = &[
    ("Faculty", "worksFor"),
    ("Student", "memberOf"),
    ("Professor", "worksFor"),
    ("Person", "memberOf"),
    ("Employee", "worksFor"),
    ("GraduateStudent", "memberOf"),
    ("Person", "worksFor"),
    ("Faculty", "memberOf"),
];

/// Properties the `kall` template asks a value for.
const KALL_VARIANTS: &[&str] = &[
    "advisor",
    "teacherOf",
    "takesCourse",
    "worksFor",
    "degreeFrom",
    "memberOf",
];

/// Faculty of `dept` typed `class` who `prop` the department — needs
/// subclass and subproperty reasoning, so only a regime answers fully.
pub fn ku_query(dept: &Dept, variant: usize) -> Query {
    let (class, prop) = KU_VARIANTS[variant % KU_VARIANTS.len()];
    Query::new(
        Kind::Ku,
        format!(
            "SELECT ?X WHERE {{ ?X rdf:type {class} . ?X {prop} {} }}",
            dept.id
        ),
    )
}

/// Members of `dept` with a `prop` value, under J·K^All. The value is
/// a variable, not a blank node: at the seed commit a checkpointed view
/// of a blank-node query cannot be decoded again (`E-PERSIST … stored
/// program does not re-parse`), which would make every restart of the
/// durable workload fail.
pub fn kall_query(dept: &Dept, variant: usize) -> Query {
    let prop = KALL_VARIANTS[variant % KALL_VARIANTS.len()];
    Query::new(
        Kind::Kall,
        format!(
            "SELECT ?X WHERE {{ ?X {prop} ?V . ?X memberOf {} }}",
            dept.id
        ),
    )
}

/// A two-pattern join with no reasoning: who takes this course, by name.
pub fn plain_query(dept: &Dept, variant: usize) -> Query {
    let course = &dept.courses[variant % dept.courses.len()];
    Query::new(
        Kind::Plain,
        format!("SELECT ?S ?N WHERE {{ ?S takesCourse {course} . ?S name ?N }}"),
    )
}

/// A TriQ-Lite program with ∃ in a head, over the library's `idle`
/// (stratified negation): idle lecturers of `dept` get a review.
pub fn rules_query(dept: &Dept, variant: usize) -> Query {
    Query::new(
        Kind::Rules,
        format!(
            "idle(?X), triple(?X, worksFor, {}) -> exists ?R review{variant}(?X, ?R).\n\
             review{variant}(?X, ?R) -> out(?X).",
            dept.id
        ),
    )
}

/// Everyone any regime types as `Person`: the one large answer.
pub fn persons_query() -> Query {
    Query::new(
        Kind::Ku,
        "SELECT ?X WHERE { ?X rdf:type Person }".to_string(),
    )
}

/// The kinds `adhoc_query` cycles through. One in four is a regime
/// query (a chase over the whole OWL closure, ten times the cost of the
/// others), so the median request sits well inside the cheap class and
/// the 90th percentile well inside the expensive one; an even split
/// would put the median on the boundary between the two.
const ADHOC_KINDS: [Kind; 8] = [
    Kind::Plain,
    Kind::Ku,
    Kind::Rules,
    Kind::Plain,
    Kind::Kall,
    Kind::Rules,
    Kind::Plain,
    Kind::Rules,
];

/// `n` requests no two of which share a text: per kind, departments
/// rotate first, then template variants. The seed picks the department
/// the rotation starts at — departments are alike, template variants are
/// not, so every seed asks for the same amount of work.
pub fn adhoc_queries(abox: &Abox, rng: &mut Rng, n: usize) -> Vec<Query> {
    let first_dept = rng.below(abox.depts.len());
    let mut seen = [0usize; 4];
    (0..n)
        .map(|i| {
            let kind = ADHOC_KINDS[i % ADHOC_KINDS.len()];
            let k = seen[kind as usize];
            seen[kind as usize] += 1;
            let dept = &abox.depts[(first_dept + k) % abox.depts.len()];
            let variant = k / abox.depts.len();
            match kind {
                Kind::Plain => plain_query(dept, variant),
                Kind::Ku => ku_query(dept, variant),
                Kind::Kall => kall_query(dept, variant),
                Kind::Rules => rules_query(dept, variant),
            }
        })
        .collect()
}

/// The fixed pool `hot_read` draws from: three plain, two `ku` (the
/// second is the large answer), two `kall`, one rule program. Index
/// [`LARGE`] is the large one.
pub fn hot_pool(abox: &Abox, rng: &mut Rng) -> Vec<Query> {
    let mut dept = || &abox.depts[rng.below(abox.depts.len())];
    let head = &dept().faculty[0];
    vec![
        plain_query(dept(), 0),
        // The recursive library rule, seen through SPARQL.
        Query::new(Kind::Plain, "SELECT ?X WHERE { ?X partOf u0 }".into()),
        Query::new(
            Kind::Plain,
            format!("SELECT ?S ?C WHERE {{ ?S advisor {head} . ?S takesCourse ?C }}"),
        ),
        ku_query(dept(), 0),
        persons_query(),
        kall_query(dept(), 0),
        kall_query(dept(), 1),
        rules_query(dept(), 0),
    ]
}

/// Index of the large answer in [`hot_pool`].
pub const LARGE: usize = 4;

/// One of each kind, all about department `focus`: the live plans of
/// `write_mix` and the queries every traced replay prepares.
pub fn kind_pool(abox: &Abox, focus: usize) -> Vec<Query> {
    let dept = &abox.depts[focus];
    vec![
        plain_query(dept, 0),
        ku_query(dept, 0),
        kall_query(dept, 0),
        rules_query(dept, 0),
    ]
}

/// One `POST /update` body with the change it must report.
#[derive(Clone, Debug)]
pub struct Update {
    pub body: String,
    pub inserts: usize,
    pub deletes: usize,
}

/// `n` small update batches over `abox`, in a fixed rhythm of five: a new
/// student with 2 facts, a course for a lecturer who had none (which flips
/// the negation rule), a student with 2 facts, one with 1, then the
/// deletion of the oldest batch still live, whole. (The inserts cost the
/// server about the same, so the median update sits inside one class; a
/// third fact of another property made one insert in five half again as
/// expensive and the median jump between the two.)
///
/// Batches go to the departments in turn, starting at `focus` — the one
/// the live plans ask about — so every seed sends the same share of
/// updates into the live plans' answers; the seed picks `focus` and the
/// courses. Every operation changes the fact set, so the server must
/// report exactly `inserts` / `deletes` and advance `version` by their
/// sum.
pub fn updates(abox: &Abox, rng: &mut Rng, n: usize, focus: usize) -> Vec<Update> {
    let line =
        |sign: char, (s, p, o): &(String, String, String)| format!("{sign}triple({s}, {p}, {o})\n");
    let mut out = Vec::with_capacity(n);
    // Insert batches not yet deleted, oldest first.
    let mut live: std::collections::VecDeque<Vec<(String, String, String)>> = Default::default();
    let mut taught: Vec<(String, String)> = Vec::new();
    let mut students = 0usize;
    for i in 0..n {
        if i % 5 == 4 && live.len() > 3 {
            let facts = live.pop_front().expect("checked non-empty");
            out.push(Update {
                body: facts.iter().map(|f| line('-', f)).collect(),
                inserts: 0,
                deletes: facts.len(),
            });
            continue;
        }
        let dept = &abox.depts[(focus + i) % abox.depts.len()];
        let facts = if i % 5 == 1 {
            // Redrawn until the pair is new: a repeated insert would be a
            // no-op the server rightly reports as `inserted: 0`.
            loop {
                let lecturer = &dept.idle_lecturers[rng.below(dept.idle_lecturers.len())];
                let course = &dept.courses[rng.below(dept.courses.len())];
                let pair = (lecturer.clone(), course.clone());
                if !taught.contains(&pair) {
                    taught.push(pair);
                    break vec![(lecturer.clone(), "teacherOf".to_string(), course.clone())];
                }
            }
        } else {
            let s = format!("newstudent{students}");
            students += 1;
            let mut facts = vec![
                (
                    s.clone(),
                    "rdf:type".to_string(),
                    "UndergraduateStudent".to_string(),
                ),
                (s, "memberOf".to_string(), dept.id.clone()),
            ];
            facts.truncate([2, 1, 2, 1, 1][i % 5]);
            facts
        };
        out.push(Update {
            body: facts.iter().map(|f| line('+', f)).collect(),
            inserts: facts.len(),
            deletes: 0,
        });
        live.push_back(facts);
    }
    out
}
