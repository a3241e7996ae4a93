//! The columnar element store (DESIGN.md §12.4).
//!
//! Every stored element — canonical or copy — is a small `Copy` header
//! (node, ordinal, canonical, row) plus one row of its ER node type's
//! **table**: one column per stored attribute (declared attributes, then
//! the idref appendix), indexed by row. A copy owns a row of its own, so
//! the paper's duplicate storage and duplicate writes are unchanged.
//!
//! A text cell is a `u32` symbol of the database's [`Interner`], which is
//! the one owner of each string; numeric cells are inline [`Value`]s. A
//! column starts as text or inline by its first cell. A number written
//! into a text column widens it to inline values once; from then on its
//! text cells are inline too.
//!
//! Copy-on-write: the header array, each table's row → element map and
//! each column sit behind their own `Arc` over 64-cell [`Chunked`] chunks.
//! A clone costs two refcount bumps; a one-cell write against a clone
//! copies the table list's column handles, the written column's spine and
//! one 64-cell chunk of it, and shares every other column whole.

use crate::chunked::{Chunked, CHUNK_LEN};
use crate::database::ElementId;
use crate::index::{IndexEntry, ValueIndex};
use crate::tree::group;
use crate::value::{Interner, Value, ValueKey};
use colorist_er::NodeId;
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Index;
use std::sync::Arc;

/// Where one element lives: its logical instance and its row in the
/// table of its node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Header {
    pub(crate) node: NodeId,
    pub(crate) ordinal: u32,
    pub(crate) canonical: ElementId,
    pub(crate) row: u32,
}

/// One cell on its way into or out of a column. Text always travels as
/// its symbol, so a cell never owns a string.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Cell {
    /// Interned text.
    Sym(u32),
    /// An `Int` or a `Float`.
    Num(Value),
}

impl Cell {
    /// The join key the cell stores.
    pub(crate) fn key(&self, interner: &Interner) -> ValueKey {
        match self {
            Cell::Sym(s) => ValueKey::Sym(*s),
            Cell::Num(v) => interner.key(v),
        }
    }
}

/// One attribute column of a node table.
#[derive(Debug, Clone)]
enum Column {
    /// Every cell is text, stored as its symbol.
    Text(Chunked<u32>),
    /// Every cell inline: numbers, and text once a number shared the column.
    Values(Chunked<Value>),
}

impl Column {
    fn for_cell(cell: &Cell) -> Column {
        match cell {
            Cell::Sym(_) => Column::Text(Chunked::default()),
            Cell::Num(_) => Column::Values(Chunked::default()),
        }
    }

    fn len(&self) -> usize {
        match self {
            Column::Text(c) => c.len(),
            Column::Values(c) => c.len(),
        }
    }

    #[inline]
    fn value<'a>(&'a self, row: usize, interner: &'a Interner) -> &'a Value {
        match self {
            Column::Text(c) => interner.value(*c.get(row)),
            Column::Values(c) => c.get(row),
        }
    }

    /// `None` only for text a buggy write path stored without interning.
    #[inline]
    fn key(&self, row: usize, interner: &Interner) -> Option<ValueKey> {
        match self {
            Column::Text(c) => Some(ValueKey::Sym(*c.get(row))),
            Column::Values(c) => interner.try_key(c.get(row)),
        }
    }

    fn cell(&self, row: usize, interner: &Interner) -> Cell {
        match self {
            Column::Text(c) => Cell::Sym(*c.get(row)),
            Column::Values(c) => match c.get(row) {
                Value::Text(s) => Cell::Sym(interner.get(s).expect("stored text is interned")),
                v => Cell::Num(v.clone()),
            },
        }
    }

    /// Whether storing `cell` needs the column widened first.
    fn widens_for(&self, cell: &Cell) -> bool {
        matches!((self, cell), (Column::Text(_), Cell::Num(_)))
    }

    /// This column with every cell inline.
    fn widened(&self, interner: &Interner) -> Column {
        match self {
            Column::Text(c) => {
                Column::Values(c.iter().map(|&s| interner.value(s).clone()).collect())
            }
            Column::Values(_) => self.clone(),
        }
    }

    fn inline(cell: Cell, interner: &Interner) -> Value {
        match cell {
            Cell::Sym(s) => interner.value(s).clone(),
            Cell::Num(v) => v,
        }
    }

    fn push(&mut self, cell: Cell, interner: &Interner) {
        if self.widens_for(&cell) {
            *self = self.widened(interner);
        }
        match (self, cell) {
            (Column::Text(c), Cell::Sym(s)) => c.push(s),
            (Column::Values(c), cell) => c.push(Column::inline(cell, interner)),
            (Column::Text(_), Cell::Num(_)) => unreachable!("widened above"),
        }
    }

    /// Overwrite one cell of a column that fits it (see
    /// [`Column::widens_for`]); returns the old cell's key.
    fn set(&mut self, row: usize, cell: Cell, interner: &Interner) -> Option<ValueKey> {
        match (self, cell) {
            (Column::Text(c), Cell::Sym(s)) => {
                Some(ValueKey::Sym(std::mem::replace(c.get_mut(row), s)))
            }
            (Column::Values(c), cell) => {
                let new = Column::inline(cell, interner);
                interner.try_key(&std::mem::replace(c.get_mut(row), new))
            }
            (Column::Text(_), Cell::Num(_)) => unreachable!("a number is written after widening"),
        }
    }

    /// Append a copy of one of the column's own cells.
    fn push_copy(&mut self, row: usize) {
        match self {
            Column::Text(c) => {
                let s = *c.get(row);
                c.push(s);
            }
            Column::Values(c) => {
                let v = c.get(row).clone();
                c.push(v);
            }
        }
    }

    /// Number of chunks, and how many of them `other` holds at the same
    /// position.
    fn sharing(&self, other: Option<&Column>) -> (usize, usize) {
        fn count<T: Clone>(a: &Chunked<T>, b: Option<&Chunked<T>>) -> (usize, usize) {
            let shared = b.map_or(0, |b| {
                a.chunks().iter().zip(b.chunks()).filter(|(x, y)| Arc::ptr_eq(x, y)).count()
            });
            (a.chunks().len(), shared)
        }
        match self {
            Column::Text(a) => count(a, other.and_then(|o| o.as_text())),
            Column::Values(a) => count(a, other.and_then(|o| o.as_values())),
        }
    }

    /// Whether chunk `k` is the very chunk `old` holds there.
    fn shares_chunk(&self, old: &Column, k: usize) -> bool {
        match (self, old) {
            (Column::Text(a), Column::Text(b)) => Arc::ptr_eq(&a.chunks()[k], &b.chunks()[k]),
            (Column::Values(a), Column::Values(b)) => Arc::ptr_eq(&a.chunks()[k], &b.chunks()[k]),
            _ => false,
        }
    }

    fn as_text(&self) -> Option<&Chunked<u32>> {
        match self {
            Column::Text(c) => Some(c),
            Column::Values(_) => None,
        }
    }

    fn as_values(&self) -> Option<&Chunked<Value>> {
        match self {
            Column::Values(c) => Some(c),
            Column::Text(_) => None,
        }
    }
}

/// The rows of one ER node type.
#[derive(Debug, Clone)]
struct Table {
    /// Row → element.
    ids: Arc<Chunked<ElementId>>,
    /// One column per stored attribute, created with the first row.
    columns: Vec<Arc<Column>>,
}

/// Every stored element: headers in id order, cells in per-node tables.
#[derive(Debug, Clone)]
pub(crate) struct Elements {
    headers: Arc<Chunked<Header>>,
    tables: Arc<Vec<Table>>,
}

impl Elements {
    /// Number of stored elements.
    pub(crate) fn len(&self) -> usize {
        self.headers.len()
    }

    #[inline]
    pub(crate) fn header(&self, e: ElementId) -> Header {
        *self.headers.get(e.idx())
    }

    /// Stored attributes per element of `node` (0 before its first row).
    pub(crate) fn arity(&self, node: NodeId) -> usize {
        self.tables.get(node.idx()).map_or(0, |t| t.columns.len())
    }

    #[inline]
    pub(crate) fn attrs<'a>(&'a self, h: Header, interner: &'a Interner) -> Attrs<'a> {
        Attrs { elements: self, interner, node: h.node, row: h.row as usize }
    }

    /// The key reader of column `(node, attr)`: row → the cell's join key.
    pub(crate) fn keys<'a>(
        &'a self,
        node: NodeId,
        attr: usize,
        interner: &'a Interner,
    ) -> impl Fn(u32) -> Option<ValueKey> + 'a {
        let column = &self.tables[node.idx()].columns[attr];
        move |row| column.key(row as usize, interner)
    }

    /// Cell `attr` of the element behind `h`.
    pub(crate) fn cell(&self, h: Header, attr: usize, interner: &Interner) -> Cell {
        self.tables[h.node.idx()].columns[attr].cell(h.row as usize, interner)
    }

    /// Append an element with one cell per column of `node` (the first row
    /// of a node creates its columns). Text cells must be interned in
    /// `interner`.
    pub(crate) fn push(
        &mut self,
        node: NodeId,
        ordinal: u32,
        canonical: ElementId,
        cells: impl IntoIterator<Item = Cell>,
        interner: &Interner,
    ) -> ElementId {
        let id = ElementId(self.headers.len() as u32);
        let table = &mut Arc::make_mut(&mut self.tables)[node.idx()];
        let first = table.ids.len() == 0;
        let mut arity = 0;
        for cell in cells {
            if first {
                table.columns.push(Arc::new(Column::for_cell(&cell)));
            }
            let column = table.columns.get_mut(arity).unwrap_or_else(|| {
                panic!("an element of node {} stores one cell per column", node.0)
            });
            Arc::make_mut(column).push(cell, interner);
            arity += 1;
        }
        assert_eq!(
            arity,
            table.columns.len(),
            "an element of node {} stores a cell per column",
            node.0
        );
        let row = table.ids.len() as u32;
        Arc::make_mut(&mut table.ids).push(id);
        Arc::make_mut(&mut self.headers).push(Header { node, ordinal, canonical, row });
        id
    }

    /// Append a physical copy of element `of`: same instance, same cells,
    /// a row of its own.
    pub(crate) fn push_copy(&mut self, of: ElementId) -> ElementId {
        let h = self.header(of);
        let id = ElementId(self.headers.len() as u32);
        let table = &mut Arc::make_mut(&mut self.tables)[h.node.idx()];
        for column in &mut table.columns {
            Arc::make_mut(column).push_copy(h.row as usize);
        }
        let row = table.ids.len() as u32;
        Arc::make_mut(&mut table.ids).push(id);
        Arc::make_mut(&mut self.headers).push(Header { row, ..h });
        id
    }

    /// Overwrite cell `attr` of element `e`, returning the old cell's key.
    /// A number written into a text column widens the column first; the
    /// widened column is a new allocation, never a copy of the text one.
    pub(crate) fn write(
        &mut self,
        e: ElementId,
        attr: usize,
        cell: Cell,
        interner: &Interner,
    ) -> Option<ValueKey> {
        let h = self.header(e);
        let column = &mut Arc::make_mut(&mut self.tables)[h.node.idx()].columns[attr];
        if column.widens_for(&cell) {
            *column = Arc::new(column.widened(interner));
        }
        Arc::make_mut(column).set(h.row as usize, cell, interner)
    }

    /// Content equality under one symbol table (the caller has checked
    /// that both stores' tables are equal): headers, rows, and every cell
    /// by value, whichever way each column stores it.
    pub(crate) fn same_content(&self, other: &Elements, interner: &Interner) -> bool {
        self.headers == other.headers
            && self.tables.len() == other.tables.len()
            && self.tables.iter().zip(other.tables.iter()).all(|(a, b)| {
                a.ids == b.ids
                    && a.columns.len() == b.columns.len()
                    && a.columns.iter().zip(&b.columns).all(|(x, y)| match (&**x, &**y) {
                        (Column::Text(x), Column::Text(y)) => x == y,
                        (Column::Values(x), Column::Values(y)) => x == y,
                        (x, y) => {
                            (0..a.ids.len()).all(|r| x.value(r, interner) == y.value(r, interner))
                        }
                    })
            })
    }

    /// S010, the column audit: every column of a node holds one cell per
    /// row; headers and `(node, row)` map onto each other both ways with no
    /// row unnamed; every symbol of a text column is in `interner`. Linear
    /// in the rows and text cells, with no allocation.
    pub(crate) fn audit(&self, interner: &Interner) -> Result<(), String> {
        let mut rows = 0;
        for (n, table) in self.tables.iter().enumerate() {
            let len = table.ids.len();
            rows += len;
            for (a, column) in table.columns.iter().enumerate() {
                if column.len() != len {
                    return Err(format!(
                        "column (node {n}, attr {a}) holds {} cells over {len} rows",
                        column.len()
                    ));
                }
                let top =
                    column.as_text().and_then(|c| c.slices().filter_map(|s| s.iter().max()).max());
                if let Some(s) = top.filter(|&&s| s as usize >= interner.len()) {
                    return Err(format!(
                        "column (node {n}, attr {a}) holds symbol {s} of a table of {}",
                        interner.len()
                    ));
                }
            }
            for (r, &e) in table.ids.slices().flatten().enumerate() {
                let named = (e.idx() < self.len()).then(|| self.header(e));
                if named.is_none_or(|h| h.node.idx() != n || h.row as usize != r) {
                    return Err(format!(
                        "row {r} of node {n} names {e}, whose header is elsewhere"
                    ));
                }
            }
        }
        if rows != self.len() {
            return Err(format!("the tables hold {rows} rows for {} elements", self.len()));
        }
        Ok(())
    }

    /// The elements whose cells may differ from `old`'s (headers only
    /// grow): found by pointer — table list, column, chunk — then, in each
    /// chunk `old` does not share, row by row and bit for bit (`-0.0` is
    /// not `0.0`). `old`'s text resolves through `old_interner`.
    pub(crate) fn changed_since(
        &self,
        old: &Elements,
        i: &Interner,
        old_i: &Interner,
    ) -> BTreeSet<u32> {
        let mut changed = BTreeSet::new();
        let tables = self.tables.iter().zip(old.tables.iter());
        for (table, was) in tables.filter(|_| !Arc::ptr_eq(&self.tables, &old.tables)) {
            let columns = table.columns.iter().zip(&was.columns);
            for (column, old_column) in columns.filter(|(c, o)| !Arc::ptr_eq(c, o)) {
                let rows = (0..was.ids.len().div_ceil(CHUNK_LEN))
                    .filter(|&k| !column.shares_chunk(old_column, k))
                    .flat_map(|k| k * CHUNK_LEN..((k + 1) * CHUNK_LEN).min(was.ids.len()));
                for r in rows {
                    let (a, b) = (column.value(r, i), old_column.value(r, old_i));
                    // equal floats differ in bits only as `0.0` and `-0.0`
                    let signed = |v: &Value| matches!(v, Value::Float(f) if f.is_sign_negative());
                    if a != b || signed(a) != signed(b) {
                        changed.insert(table.ids.get(r).0);
                    }
                }
            }
        }
        changed
    }

    /// What this store and `other` share of column `(node, attr)`.
    pub(crate) fn sharing(&self, other: &Elements, node: NodeId, attr: usize) -> ColumnSharing {
        let column = |s: &Elements| s.tables.get(node.idx())?.columns.get(attr).cloned();
        let (a, b) = (column(self), column(other));
        let (chunks, shared_chunks) = a.as_ref().map_or((0, 0), |a| a.sharing(b.as_deref()));
        let column = a.zip(b).is_some_and(|(a, b)| Arc::ptr_eq(&a, &b));
        ColumnSharing { column, chunks, shared_chunks }
    }
}

/// One column while staged: [`Column`]'s two forms over plain vectors.
#[derive(Debug, Clone)]
enum StagedColumn {
    Text(Vec<u32>),
    Values(Vec<Value>),
}

impl StagedColumn {
    /// [`Column::push`], staged.
    fn push(&mut self, cell: Cell, interner: &Interner) {
        if let (StagedColumn::Text(syms), Cell::Num(_)) = (&*self, &cell) {
            *self = StagedColumn::Values(syms.iter().map(|&s| interner.value(s).clone()).collect());
        }
        match (self, cell) {
            (StagedColumn::Text(c), Cell::Sym(s)) => c.push(s),
            (StagedColumn::Values(c), cell) => c.push(Column::inline(cell, interner)),
            (StagedColumn::Text(_), Cell::Num(_)) => unreachable!("widened above"),
        }
    }

    /// [`Column::push_copy`], staged.
    fn push_copy(&mut self, row: usize) {
        match self {
            StagedColumn::Text(c) => c.push(c[row]),
            StagedColumn::Values(c) => c.push(c[row].clone()),
        }
    }

    fn freeze(&self) -> Column {
        match self {
            StagedColumn::Text(c) => Column::Text(Chunked::from_slice(c)),
            StagedColumn::Values(c) => Column::Values(Chunked::from_slice(c)),
        }
    }
}

/// The bulk-build form of [`Elements`]: plain vectors, filled a row at a
/// time by the builder and the paged loader and cut into chunks once, so a
/// build pays no per-cell copy-on-write check.
#[derive(Debug)]
pub(crate) struct Staged {
    headers: Vec<Header>,
    /// Per node: row → element, and the columns.
    tables: Vec<(Vec<ElementId>, Vec<StagedColumn>)>,
}

impl Staged {
    pub(crate) fn new(node_count: usize) -> Staged {
        Staged { headers: Vec::new(), tables: vec![(Vec::new(), Vec::new()); node_count] }
    }

    pub(crate) fn len(&self) -> usize {
        self.headers.len()
    }

    pub(crate) fn header(&self, e: ElementId) -> Header {
        self.headers[e.idx()]
    }

    /// Stored attributes per element of `node`, once it has a row.
    pub(crate) fn arity(&self, node: NodeId) -> Option<usize> {
        let (ids, columns) = self.tables.get(node.idx())?;
        (!ids.is_empty()).then_some(columns.len())
    }

    /// [`Elements::push`], staged.
    pub(crate) fn push(
        &mut self,
        node: NodeId,
        ordinal: u32,
        canonical: ElementId,
        cells: impl IntoIterator<Item = Cell>,
        interner: &Interner,
    ) -> ElementId {
        let id = ElementId(self.headers.len() as u32);
        let (ids, columns) = &mut self.tables[node.idx()];
        let first = ids.is_empty();
        let mut arity = 0;
        for cell in cells {
            if first {
                columns.push(match cell {
                    Cell::Sym(_) => StagedColumn::Text(Vec::new()),
                    Cell::Num(_) => StagedColumn::Values(Vec::new()),
                });
            }
            let column = columns.get_mut(arity).unwrap_or_else(|| {
                panic!("an element of node {} stores one cell per column", node.0)
            });
            column.push(cell, interner);
            arity += 1;
        }
        assert_eq!(arity, columns.len(), "an element of node {} stores a cell per column", node.0);
        let row = ids.len() as u32;
        ids.push(id);
        self.headers.push(Header { node, ordinal, canonical, row });
        id
    }

    /// [`Elements::push_copy`], staged.
    pub(crate) fn push_copy(&mut self, of: ElementId) -> ElementId {
        let h = self.header(of);
        let id = ElementId(self.headers.len() as u32);
        let (ids, columns) = &mut self.tables[h.node.idx()];
        for column in columns {
            column.push_copy(h.row as usize);
        }
        let row = ids.len() as u32;
        ids.push(id);
        self.headers.push(Header { row, ..h });
        id
    }

    /// The value index over the staged rows, one run per column, keyed
    /// straight from the cells with no hashing. Every canonical row is live
    /// while staged and canonical rows lie in element order, so a text
    /// column's run is a stable counting sort of its canonical rows by
    /// symbol, and a numeric run is sorted by `(key, element)` unless it is
    /// already in key order, like an id column.
    pub(crate) fn build_index(&self, interner: &Interner) -> ValueIndex {
        let mut index = ValueIndex::default();
        for (n, (ids, columns)) in self.tables.iter().enumerate() {
            let node = NodeId(n as u32);
            let canonical: Vec<(usize, ElementId)> = (ids.iter().copied().enumerate())
                .filter(|&(_, e)| self.header(e).canonical == e)
                .collect();
            for (a, column) in columns.iter().enumerate() {
                let entry = |element, key| IndexEntry { node, attr: a as u32, key, element };
                let run = match column {
                    StagedColumn::Text(syms) => {
                        let symbols = syms.iter().max().map_or(0, |&top| top as usize + 1);
                        let (_, by_symbol) =
                            group(&canonical, symbols, |&(row, _)| syms[row] as usize);
                        by_symbol
                            .iter()
                            .map(|&(row, e)| entry(e, ValueKey::Sym(syms[row])))
                            .collect()
                    }
                    StagedColumn::Values(values) => {
                        let mut run: Vec<IndexEntry> = (canonical.iter())
                            .map(|&(row, e)| entry(e, interner.key(&values[row])))
                            .collect();
                        if !run.is_sorted_by_key(|p| p.key) {
                            run.sort_unstable_by_key(|p| (p.key, p.element));
                        }
                        run
                    }
                };
                index.set_run(node, a, run);
            }
        }
        index
    }

    /// Cut every vector into chunks.
    pub(crate) fn freeze(self) -> Elements {
        let tables = (self.tables.iter())
            .map(|(ids, columns)| Table {
                ids: Arc::new(Chunked::from_slice(ids)),
                columns: columns.iter().map(|c| Arc::new(c.freeze())).collect(),
            })
            .collect();
        Elements { headers: Arc::new(Chunked::from_slice(&self.headers)), tables: Arc::new(tables) }
    }
}

/// What two databases share of one attribute column, the copy-on-write
/// unit of the element store ([`crate::Database::column_sharing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ColumnSharing {
    /// Both hold the same column allocation.
    pub column: bool,
    /// Chunks of the first database's column.
    pub chunks: usize,
    /// How many of them the second database's column holds at the same
    /// position.
    pub shared_chunks: usize,
}

/// A read view of one stored element — its header fields plus its row of
/// attribute cells. Returned by value from [`crate::Database::element`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ElementRef<'a> {
    /// The ER node type.
    pub node: NodeId,
    /// Ordinal of the logical instance within its type's extent.
    pub ordinal: u32,
    /// The canonical element of this logical instance (self for canonical
    /// elements; a copy points at the original whose data it duplicates).
    pub canonical: ElementId,
    /// Attribute values, aligned with the ER node's attribute declaration
    /// (then the idref appendix).
    pub attrs: Attrs<'a>,
}

impl ElementRef<'_> {
    /// Whether this element is a physical duplicate.
    pub fn is_copy(&self, own_id: ElementId) -> bool {
        self.canonical != own_id
    }
}

/// One element's attribute cells, read from its node's columns.
/// `attrs[i]` is a `&Value`: a text cell reads it from the symbol table.
#[derive(Clone, Copy)]
pub struct Attrs<'a> {
    /// The columns are looked up on access, so an [`ElementRef`] read for
    /// its header fields alone costs the header load only.
    elements: &'a Elements,
    interner: &'a Interner,
    node: NodeId,
    row: usize,
}

impl<'a> Attrs<'a> {
    #[inline]
    fn columns(&self) -> &'a [Arc<Column>] {
        &self.elements.tables[self.node.idx()].columns
    }

    /// Number of stored attributes.
    pub fn len(&self) -> usize {
        self.columns().len()
    }

    /// Whether the element stores no attributes.
    pub fn is_empty(&self) -> bool {
        self.columns().is_empty()
    }

    /// Attribute `i`, if stored.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&'a Value> {
        self.columns().get(i).map(|c| c.value(self.row, self.interner))
    }

    /// The `Copy` join key of attribute `i`, if stored — a text cell's
    /// symbol, with no string hashing.
    #[inline]
    pub fn key(&self, i: usize) -> Option<ValueKey> {
        self.columns().get(i).and_then(|c| c.key(self.row, self.interner))
    }

    /// Every attribute, in declaration order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a Value> + 'a {
        let (row, interner) = (self.row, self.interner);
        self.columns().iter().map(move |c| c.value(row, interner))
    }

    /// The attribute values, owned.
    pub fn to_vec(&self) -> Vec<Value> {
        self.iter().cloned().collect()
    }
}

impl Index<usize> for Attrs<'_> {
    type Output = Value;

    fn index(&self, i: usize) -> &Value {
        self.get(i).unwrap_or_else(|| panic!("attribute {i} of {} stored", self.len()))
    }
}

impl PartialEq for Attrs<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Attrs<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{Database, DatabaseBuilder};
    use colorist_er::{Attribute, ErDiagram, ErGraph};
    use colorist_mct::ColorId;

    /// Four `a` instances `(id, tag)` under one color, and a copy of the
    /// first.
    fn db() -> (NodeId, Database) {
        let mut d = ErDiagram::new("t");
        d.add_entity("a", vec![Attribute::key("id"), Attribute::text("tag")]).unwrap();
        let g = ErGraph::from_diagram(&d).unwrap();
        let s = colorist_core::design(&g, colorist_core::Strategy::En).unwrap();
        let a = g.node_by_name("a").unwrap();
        let pa = s.placements_of_in_color(a, ColorId(0))[0];
        let mut bd = DatabaseBuilder::new(s, g.node_count());
        for i in 0..4 {
            let e = bd.add_canonical(a, &[Value::Int(i), Value::Text(format!("tag{}", i % 2))]);
            bd.add_occurrence(ColorId(0), e, pa, None);
        }
        bd.add_copy(ElementId(0));
        (a, bd.finish())
    }

    fn table(db: &mut Database, node: NodeId) -> &mut Table {
        &mut Arc::make_mut(&mut db.elements.tables)[node.idx()]
    }

    /// S010 negative paths: break one thing and the report names it.
    #[test]
    fn column_audit_names_each_break() {
        let (a, db) = db();
        assert_eq!(db.check_integrity(), Ok(()));
        let s010 = |broken: &Database, what: &str| {
            let err = broken.check_integrity().unwrap_err();
            assert!(err.starts_with("S010") && err.contains(what), "{err}");
        };
        // a column one cell short of its table
        let mut broken = db.clone();
        let column = &mut table(&mut broken, a).columns[1];
        let cells = column.as_text().unwrap().iter().copied().take(4).collect();
        *column = Arc::new(Column::Text(cells));
        s010(&broken, "holds 4 cells over 5 rows");
        // a row naming an element whose header points elsewhere
        let mut broken = db.clone();
        *Arc::make_mut(&mut table(&mut broken, a).ids).get_mut(0) = ElementId(1);
        s010(&broken, "row 0 of node 0 names el1");
        // a symbol past the end of the symbol table
        let mut broken = db.clone();
        let Column::Text(tags) = Arc::make_mut(&mut table(&mut broken, a).columns[1]) else {
            panic!("a text column")
        };
        *tags.get_mut(2) = 99;
        s010(&broken, "holds symbol 99");
        // a cell rewritten behind the value index's back
        let mut broken = db.clone();
        let interner = broken.interner.clone();
        broken.elements.write(ElementId(3), 0, Cell::Num(Value::Int(-1)), &interner);
        s010(&broken, "disagrees with its column");
    }

    /// A number written into a text column widens it in a new allocation;
    /// the widened column equals one built inline, and a bulk build makes
    /// the same choice a row-at-a-time build does.
    #[test]
    fn widening_keeps_content_and_leaves_the_text_column_shared() {
        let (a, db) = db();
        let mut widened = db.clone();
        widened.write_attr(ElementId(2), 1, Value::Int(7));
        assert!(matches!(*widened.elements.tables[a.idx()].columns[1], Column::Values(_)));
        assert!(matches!(*db.elements.tables[a.idx()].columns[1], Column::Text(_)));
        assert_eq!(db.column_sharing(&widened, a, 1).shared_chunks, 0);
        assert_eq!(widened.element(ElementId(2)).attrs[1], Value::Int(7));
        assert_eq!(widened.element(ElementId(4)).attrs[1], Value::Text("tag0".into()));
        let mut staged = Staged::new(1);
        for cell in [Cell::Sym(0), Cell::Num(Value::Int(7))] {
            staged.push(a, 0, ElementId(staged.len() as u32), [cell], &db.interner);
        }
        let staged = staged.freeze();
        assert!(matches!(*staged.tables[0].columns[0], Column::Values(_)));
        assert_eq!(
            staged.attrs(staged.header(ElementId(0)), &db.interner)[0],
            Value::Text("tag0".into())
        );
        assert_eq!(widened.check_integrity(), Ok(()));
    }
}
