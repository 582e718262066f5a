(** Static suffix tree materialised from a suffix array and its LCP
    array (the lcp-interval tree of Abouelhoda et al.).

    Nodes are integers. Leaves are numbered [0 .. n-1] in suffix-array
    order (leaf [j] is the suffix [sa.(j)]); internal nodes are numbered
    from [n] upwards, the root being node [n]. Every internal node has
    at least two children. This is the topology substrate for the
    approximate index of §7 (preorder-style subtree intervals, string
    depths, ancestors, LCAs). *)

type t

val build : sa:int array -> lcp:int array -> text_len:int -> t
(** [build ~sa ~lcp ~text_len] in O(n). [text_len] is the length of the
    indexed text; leaf string depths are suffix lengths. *)

val n_leaves : t -> int
val n_nodes : t -> int
(** Total nodes including leaves. *)

val root : t -> int
val is_leaf : t -> int -> bool
val parent : t -> int -> int
(** Parent node; [parent t (root t) = -1]. *)

val str_depth : t -> int -> int
(** String depth: length of the path label from the root. *)

val interval : t -> int -> int * int
(** Inclusive suffix-array range of the leaves below the node. For leaf
    [j] this is [(j, j)]. *)

val node_of_interval : t -> l:int -> r:int -> int option
(** The unique node whose leaf interval is exactly [\[l, r\]], if any.
    The locus node of a pattern with suffix range [\[sp, ep\]] is
    [node_of_interval ~l:sp ~r:ep] (always present: suffix ranges are
    lcp-intervals or singletons). *)

val suffix_of_leaf : t -> int -> int
(** Text position of the suffix at a leaf: [sa.(j)]. *)

val leaf_of_suffix : t -> int -> int
(** Inverse of {!suffix_of_leaf}. *)

val fold_nodes : t -> init:'a -> f:('a -> int -> 'a) -> 'a
(** Folds over every node id (leaves then internal). *)

val children : t -> int -> int list
(** Children of a node in leaf-interval (= lexicographic) order; [[]]
    for leaves. *)
