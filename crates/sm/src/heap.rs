//! The forest-shaped heap model (§3.2.4).
//!
//! The heap is a forest of *pointable-to objects*: dynamically allocated
//! objects plus every global or local variable whose address is taken in the
//! program text. An array object has its elements as children; a struct
//! object has its fields as children. Pointers name a root object and a path
//! of child indices, so pointers to struct fields and array elements are
//! first-class.
//!
//! The forest is immutable in shape: allocation *finds* a fresh object and
//! marks it valid; `dealloc` marks it freed. Accessing (or comparing
//! against) a pointer into a freed object is undefined behavior, as is
//! pointer arithmetic or ordering across distinct arrays.

use armada_lang::ast::Type;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::value::{UbReason, Value};

/// Index of a heap object within the forest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj{}", self.0)
    }
}

/// A pointer value: a root object plus a path of child indices (array
/// element or struct field positions).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PtrVal {
    /// The root object.
    pub object: ObjectId,
    /// Child indices from the root to the pointee.
    pub path: Vec<u32>,
}

impl PtrVal {
    /// A pointer to the root of `object`.
    pub fn to_root(object: ObjectId) -> PtrVal {
        PtrVal {
            object,
            path: Vec::new(),
        }
    }

    /// The memory location this pointer designates.
    pub fn location(&self) -> Location {
        Location {
            object: self.object,
            path: self.path.clone(),
        }
    }
}

impl fmt::Display for PtrVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "&{}", self.object)?;
        for seg in &self.path {
            write!(f, ".{seg}")?;
        }
        Ok(())
    }
}

/// A shared-memory location: the unit of store-buffer entries and of effect
/// analysis.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    /// The root object.
    pub object: ObjectId,
    /// Child indices from the root.
    pub path: Vec<u32>,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.object)?;
        for seg in &self.path {
            write!(f, ".{seg}")?;
        }
        Ok(())
    }
}

/// A memory tree: primitive leaf, array of children, or struct of fields
/// (field order follows the struct declaration; names are kept so the
/// evaluator can resolve `e.field` to a child index from the node alone).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemNode {
    /// A primitive (or ghost) value.
    Leaf(Value),
    /// An array; children are the elements.
    Array(Vec<MemNode>),
    /// A struct; children are the named fields in declaration order.
    Struct(Vec<(String, MemNode)>),
}

impl MemNode {
    /// Builds the zero-initialized layout of `ty`, resolving struct names
    /// through `structs`.
    ///
    /// # Panics
    ///
    /// Panics if `ty` mentions a struct absent from `structs`; the type
    /// checker guarantees this cannot happen for checked programs.
    pub fn zero(ty: &Type, structs: &BTreeMap<String, Vec<(String, Type)>>) -> MemNode {
        match ty {
            Type::Array(elem, len) => {
                MemNode::Array((0..*len).map(|_| MemNode::zero(elem, structs)).collect())
            }
            Type::Named(name) => {
                let fields = structs
                    .get(name)
                    .unwrap_or_else(|| panic!("unknown struct `{name}` in layout"));
                MemNode::Struct(
                    fields
                        .iter()
                        .map(|(field, t)| (field.clone(), MemNode::zero(t, structs)))
                        .collect(),
                )
            }
            other => MemNode::Leaf(Value::zero_of(other).expect("primitive type has a zero")),
        }
    }

    /// Navigates to the node at `path`.
    pub fn descend(&self, path: &[u32]) -> Result<&MemNode, UbReason> {
        let mut node = self;
        for &seg in path {
            node = match node {
                MemNode::Array(children) => {
                    children.get(seg as usize).ok_or(UbReason::OutOfBounds)?
                }
                MemNode::Struct(fields) => {
                    &fields.get(seg as usize).ok_or(UbReason::OutOfBounds)?.1
                }
                MemNode::Leaf(_) => return Err(UbReason::OutOfBounds),
            };
        }
        Ok(node)
    }

    /// Navigates mutably to the node at `path`.
    pub fn descend_mut(&mut self, path: &[u32]) -> Result<&mut MemNode, UbReason> {
        let mut node = self;
        for &seg in path {
            node = match node {
                MemNode::Array(children) => children
                    .get_mut(seg as usize)
                    .ok_or(UbReason::OutOfBounds)?,
                MemNode::Struct(fields) => {
                    &mut fields.get_mut(seg as usize).ok_or(UbReason::OutOfBounds)?.1
                }
                MemNode::Leaf(_) => return Err(UbReason::OutOfBounds),
            };
        }
        Ok(node)
    }

    /// Resolves a struct field name to its child index at this node.
    pub fn field_index(&self, name: &str) -> Option<u32> {
        match self {
            MemNode::Struct(fields) => fields
                .iter()
                .position(|(field, _)| field == name)
                .map(|i| i as u32),
            _ => None,
        }
    }

    /// The primitive value at this node, if it is a leaf.
    pub fn as_leaf(&self) -> Option<&Value> {
        match self {
            MemNode::Leaf(value) => Some(value),
            _ => None,
        }
    }
}

/// Whether an object is live or has been freed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AllocStatus {
    /// The object is live.
    Valid,
    /// The object has been deallocated; any access through it is UB.
    Freed,
}

/// How an object came to exist, which controls whether `dealloc` may free it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RootKind {
    /// Backing storage of a global or an address-taken local. Never
    /// deallocated by `dealloc`; locals are freed at frame exit.
    Static,
    /// A `malloc` allocation (dealloc expects a pointer to the root).
    Malloc,
    /// A `calloc` allocation (dealloc expects a pointer to element 0).
    Calloc,
}

/// One object of the heap forest.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HeapObject {
    /// The object's memory tree.
    pub node: MemNode,
    /// Live or freed.
    pub status: AllocStatus,
    /// Provenance.
    pub kind: RootKind,
}

/// The heap forest. Object ids are assigned in allocation order, which keeps
/// the semantics deterministic given a step sequence.
///
/// The object table is a shared slice of shared objects, so cloning a heap
/// is a refcount bump. A step that writes no memory leaves the whole table
/// shared; a write unshares the table (one allocation, one refcount bump
/// per object) plus the one object it writes, and an allocation builds the
/// grown table in one allocation. Writes validate against the shared table
/// first, so a step that turns out to be UB copies nothing.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Heap {
    objects: Arc<[Arc<HeapObject>]>,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Heap {
        Heap::default()
    }

    /// Number of objects ever allocated (live and freed).
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if no object was ever allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Allocates a new object and returns its id.
    pub fn alloc(&mut self, node: MemNode, kind: RootKind) -> ObjectId {
        let id = ObjectId(self.objects.len() as u32);
        let object = Arc::new(HeapObject {
            node,
            status: AllocStatus::Valid,
            kind,
        });
        self.objects = self
            .objects
            .iter()
            .cloned()
            .chain(std::iter::once(object))
            .collect();
        id
    }

    /// The object with the given id, if it exists.
    pub fn object(&self, id: ObjectId) -> Option<&HeapObject> {
        self.objects.get(id.0 as usize).map(Arc::as_ref)
    }

    /// Every object, in id order. Paired with [`Heap::from_objects`] by
    /// symmetry canonicalization, which permutes dynamic object ids (see
    /// `crate::canon`).
    pub fn objects(&self) -> &[Arc<HeapObject>] {
        &self.objects
    }

    /// The object with the given id, unshared for writing.
    fn object_mut(&mut self, id: ObjectId) -> &mut HeapObject {
        Arc::make_mut(&mut Arc::make_mut(&mut self.objects)[id.0 as usize])
    }

    /// True if the object exists and is live.
    pub fn is_valid(&self, id: ObjectId) -> bool {
        matches!(self.object(id), Some(obj) if obj.status == AllocStatus::Valid)
    }

    /// Reads the memory node at `loc`.
    ///
    /// # Errors
    ///
    /// [`UbReason::FreedAccess`] if the object is freed or unknown;
    /// [`UbReason::OutOfBounds`] if the path does not exist.
    pub fn read(&self, loc: &Location) -> Result<&MemNode, UbReason> {
        let obj = self.object(loc.object).ok_or(UbReason::FreedAccess)?;
        if obj.status == AllocStatus::Freed {
            return Err(UbReason::FreedAccess);
        }
        obj.node.descend(&loc.path)
    }

    /// Writes the memory node at `loc`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Heap::read`].
    pub fn write(&mut self, loc: &Location, node: MemNode) -> Result<(), UbReason> {
        // Validate against the shared table first: unsharing copies the
        // table and deep-copies the object, so don't pay that on a write
        // that turns out to be UB.
        self.read(loc)?;
        *self
            .object_mut(loc.object)
            .node
            .descend_mut(&loc.path)
            .expect("path validated") = node;
        Ok(())
    }

    /// Writes a primitive value at `loc`, which must designate a leaf.
    pub fn write_leaf(&mut self, loc: &Location, value: Value) -> Result<(), UbReason> {
        self.write(loc, MemNode::Leaf(value))
    }

    /// Frees the allocation designated by `ptr` (§3.2.4: freeing marks all
    /// the object's pointers freed).
    ///
    /// # Errors
    ///
    /// [`UbReason::InvalidDealloc`] unless `ptr` is the root of a live
    /// `malloc` allocation or element 0 of a live `calloc` allocation.
    pub fn dealloc(&mut self, ptr: &PtrVal) -> Result<(), UbReason> {
        let obj = self.object(ptr.object).ok_or(UbReason::InvalidDealloc)?;
        if obj.status == AllocStatus::Freed {
            return Err(UbReason::FreedAccess);
        }
        let root_ok = match obj.kind {
            RootKind::Malloc => ptr.path.is_empty(),
            RootKind::Calloc => ptr.path == [0],
            RootKind::Static => false,
        };
        if !root_ok {
            return Err(UbReason::InvalidDealloc);
        }
        self.object_mut(ptr.object).status = AllocStatus::Freed;
        Ok(())
    }

    /// Rebuilds a heap from an object list; the index of each entry becomes
    /// its [`ObjectId`]. The caller is responsible for having rewritten any
    /// pointers consistently with the new numbering. An iterator of known
    /// length builds the table in one allocation.
    pub fn from_objects(objects: impl IntoIterator<Item = Arc<HeapObject>>) -> Heap {
        Heap {
            objects: objects.into_iter().collect(),
        }
    }

    /// Marks an object freed without dealloc rules; used for address-taken
    /// locals at frame exit.
    pub fn free_static(&mut self, id: ObjectId) {
        if self.is_valid(id) {
            self.object_mut(id).status = AllocStatus::Freed;
        }
    }

    /// Pointer arithmetic `ptr + offset` within a single array (§3.2.4).
    /// One-past-the-end pointers are representable (for comparisons) but
    /// dereferencing them fails the bounds check in [`Heap::read`].
    ///
    /// # Errors
    ///
    /// [`UbReason::FreedAccess`] on freed objects,
    /// [`UbReason::CrossArrayPointerOp`] if the pointee is not an array
    /// element, [`UbReason::OutOfBounds`] if the result strays outside
    /// `0..=len`.
    pub fn ptr_add(&self, ptr: &PtrVal, offset: i128) -> Result<PtrVal, UbReason> {
        let obj = self.object(ptr.object).ok_or(UbReason::FreedAccess)?;
        if obj.status == AllocStatus::Freed {
            return Err(UbReason::FreedAccess);
        }
        let (parent_path, last) = match ptr.path.split_last() {
            Some((last, init)) => (init, *last),
            None => return Err(UbReason::CrossArrayPointerOp),
        };
        let parent = obj.node.descend(parent_path)?;
        let len = match parent {
            MemNode::Array(children) => children.len() as i128,
            _ => return Err(UbReason::CrossArrayPointerOp),
        };
        let new_index = last as i128 + offset;
        if new_index < 0 || new_index > len {
            return Err(UbReason::OutOfBounds);
        }
        let mut path = parent_path.to_vec();
        path.push(new_index as u32);
        Ok(PtrVal {
            object: ptr.object,
            path,
        })
    }

    /// Pointer subtraction `p - q`, defined only for elements of the same
    /// array.
    pub fn ptr_diff(&self, p: &PtrVal, q: &PtrVal) -> Result<i128, UbReason> {
        self.check_same_array(p, q)?;
        let (pi, qi) = (
            *p.path.last().expect("checked") as i128,
            *q.path.last().expect("checked") as i128,
        );
        Ok(pi - qi)
    }

    /// Pointer ordering `p < q` etc., defined only within a single array.
    pub fn ptr_order(&self, p: &PtrVal, q: &PtrVal) -> Result<std::cmp::Ordering, UbReason> {
        self.check_same_array(p, q)?;
        Ok(p.path.last().cmp(&q.path.last()))
    }

    /// Pointer equality. Comparing against a pointer into freed memory is UB
    /// (§3.2.4); `null` compares fine with anything.
    pub fn ptr_eq(&self, p: &Option<PtrVal>, q: &Option<PtrVal>) -> Result<bool, UbReason> {
        for side in [p, q].into_iter().flatten() {
            if !self.is_valid(side.object) {
                return Err(UbReason::FreedAccess);
            }
        }
        Ok(p == q)
    }

    fn check_same_array(&self, p: &PtrVal, q: &PtrVal) -> Result<(), UbReason> {
        for side in [p, q] {
            if !self.is_valid(side.object) {
                return Err(UbReason::FreedAccess);
            }
        }
        if p.object != q.object
            || p.path.is_empty()
            || q.path.is_empty()
            || p.path[..p.path.len() - 1] != q.path[..q.path.len() - 1]
        {
            return Err(UbReason::CrossArrayPointerOp);
        }
        // The shared parent must actually be an array, not a struct.
        let obj = self.object(p.object).ok_or(UbReason::FreedAccess)?;
        match obj.node.descend(&p.path[..p.path.len() - 1])? {
            MemNode::Array(_) => Ok(()),
            _ => Err(UbReason::CrossArrayPointerOp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use armada_lang::ast::IntType;

    fn u32v(v: i128) -> Value {
        Value::int(IntType::U32, v)
    }

    fn array_heap() -> (Heap, ObjectId) {
        let mut heap = Heap::new();
        let node = MemNode::Array((0..4).map(|i| MemNode::Leaf(u32v(i))).collect());
        let id = heap.alloc(node, RootKind::Calloc);
        (heap, id)
    }

    #[test]
    fn read_write_through_paths() {
        let (mut heap, id) = array_heap();
        let loc = Location {
            object: id,
            path: vec![2],
        };
        assert_eq!(heap.read(&loc).unwrap().as_leaf(), Some(&u32v(2)));
        heap.write_leaf(&loc, u32v(99)).unwrap();
        assert_eq!(heap.read(&loc).unwrap().as_leaf(), Some(&u32v(99)));
    }

    #[test]
    fn out_of_bounds_path_is_ub() {
        let (heap, id) = array_heap();
        let loc = Location {
            object: id,
            path: vec![9],
        };
        assert_eq!(heap.read(&loc), Err(UbReason::OutOfBounds));
    }

    #[test]
    fn freed_access_is_ub() {
        let (mut heap, id) = array_heap();
        heap.dealloc(&PtrVal {
            object: id,
            path: vec![0],
        })
        .unwrap();
        let loc = Location {
            object: id,
            path: vec![1],
        };
        assert_eq!(heap.read(&loc), Err(UbReason::FreedAccess));
        assert_eq!(heap.write_leaf(&loc, u32v(0)), Err(UbReason::FreedAccess));
    }

    #[test]
    fn dealloc_rules() {
        let mut heap = Heap::new();
        let malloc_id = heap.alloc(MemNode::Leaf(u32v(0)), RootKind::Malloc);
        let static_id = heap.alloc(MemNode::Leaf(u32v(0)), RootKind::Static);
        // malloc: pointer to root required.
        assert!(heap.dealloc(&PtrVal::to_root(malloc_id)).is_ok());
        // double free is UB.
        assert_eq!(
            heap.dealloc(&PtrVal::to_root(malloc_id)),
            Err(UbReason::FreedAccess)
        );
        // statics cannot be deallocated.
        assert_eq!(
            heap.dealloc(&PtrVal::to_root(static_id)),
            Err(UbReason::InvalidDealloc)
        );
    }

    #[test]
    fn pointer_arithmetic_stays_in_array() {
        let (heap, id) = array_heap();
        let base = PtrVal {
            object: id,
            path: vec![0],
        };
        let third = heap.ptr_add(&base, 3).unwrap();
        assert_eq!(third.path, vec![3]);
        // one-past-the-end is representable…
        let end = heap.ptr_add(&base, 4).unwrap();
        // …but not dereferenceable.
        assert_eq!(heap.read(&end.location()), Err(UbReason::OutOfBounds));
        // beyond that is UB immediately.
        assert_eq!(heap.ptr_add(&base, 5), Err(UbReason::OutOfBounds));
        assert_eq!(heap.ptr_add(&base, -1), Err(UbReason::OutOfBounds));
    }

    #[test]
    fn cross_array_comparison_is_ub() {
        let (mut heap, a) = array_heap();
        let node = MemNode::Array((0..4).map(|_| MemNode::Leaf(u32v(0))).collect());
        let b = heap.alloc(node, RootKind::Calloc);
        let pa = PtrVal {
            object: a,
            path: vec![1],
        };
        let pb = PtrVal {
            object: b,
            path: vec![1],
        };
        assert_eq!(heap.ptr_order(&pa, &pb), Err(UbReason::CrossArrayPointerOp));
        assert_eq!(heap.ptr_diff(&pa, &pb), Err(UbReason::CrossArrayPointerOp));
        assert_eq!(
            heap.ptr_order(
                &pa,
                &PtrVal {
                    object: a,
                    path: vec![3]
                }
            ),
            Ok(std::cmp::Ordering::Less)
        );
    }

    #[test]
    fn equality_with_freed_pointer_is_ub() {
        let (mut heap, id) = array_heap();
        let p = PtrVal {
            object: id,
            path: vec![0],
        };
        assert_eq!(heap.ptr_eq(&Some(p.clone()), &None), Ok(false));
        heap.dealloc(&p).unwrap();
        assert_eq!(heap.ptr_eq(&Some(p), &None), Err(UbReason::FreedAccess));
    }

    #[test]
    fn struct_layout_zeroes() {
        let mut structs = BTreeMap::new();
        structs.insert(
            "S".to_string(),
            vec![
                ("a".to_string(), Type::Int(IntType::U32)),
                ("b".to_string(), Type::array(Type::Bool, 2)),
            ],
        );
        let node = MemNode::zero(&Type::Named("S".into()), &structs);
        match node {
            MemNode::Struct(fields) => {
                assert_eq!(fields.len(), 2);
                assert_eq!(fields[0].0, "a");
                assert_eq!(fields[0].1.as_leaf(), Some(&u32v(0)));
                assert!(matches!(&fields[1].1, MemNode::Array(a) if a.len() == 2));
            }
            other => panic!("expected struct, got {other:?}"),
        }
    }

    #[test]
    fn ptr_order_requires_array_parent_not_struct() {
        let mut structs = BTreeMap::new();
        structs.insert(
            "S".to_string(),
            vec![
                ("a".to_string(), Type::Int(IntType::U32)),
                ("b".to_string(), Type::Int(IntType::U32)),
            ],
        );
        let mut heap = Heap::new();
        let id = heap.alloc(
            MemNode::zero(&Type::Named("S".into()), &structs),
            RootKind::Malloc,
        );
        let pa = PtrVal {
            object: id,
            path: vec![0],
        };
        let pb = PtrVal {
            object: id,
            path: vec![1],
        };
        assert_eq!(heap.ptr_order(&pa, &pb), Err(UbReason::CrossArrayPointerOp));
    }
}
