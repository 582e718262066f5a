type kind = Naive | Sparse | Block of int

let kind_of_string s =
  match s with
  | "naive" -> Some Naive
  | "sparse" -> Some Sparse
  | "block" -> Some (Block Rmq_block.max_block)
  | _ -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "block" -> (
          match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
          | Some b when b >= 2 && b <= Rmq_block.max_block -> Some (Block b)
          | _ -> None)
      | _ -> None)

let kind_to_string = function
  | Naive -> "naive"
  | Sparse -> "sparse"
  | Block b -> Printf.sprintf "block:%d" b

let all_kinds = [ Naive; Sparse; Block Rmq_block.max_block ]

type t = N of Rmq_naive.t | Sp of Rmq_sparse.t | B of Rmq_block.t

let build kind a =
  match kind with
  | Naive -> N (Rmq_naive.build a)
  | Sparse -> Sp (Rmq_sparse.build a)
  | Block block -> B (Rmq_block.build ~block a)

let build_oracle kind ~value ~len =
  match kind with
  | Naive -> N (Rmq_naive.build_oracle ~value ~len)
  | Sparse -> Sp (Rmq_sparse.build_oracle ~value ~len)
  | Block block -> B (Rmq_block.build_oracle ~block ~value ~len)

let length = function
  | N t -> Rmq_naive.length t
  | Sp t -> Rmq_sparse.length t
  | B t -> Rmq_block.length t

let query t ~l ~r =
  match t with
  | N t -> Rmq_naive.query t ~l ~r
  | Sp t -> Rmq_sparse.query t ~l ~r
  | B t -> Rmq_block.query t ~l ~r

let size_words = function
  | N t -> Rmq_naive.size_words t
  | Sp t -> Rmq_sparse.size_words t
  | B t -> Rmq_block.size_words t

let size_bytes = function
  | N t -> Rmq_naive.size_bytes t
  | Sp t -> Rmq_sparse.size_bytes t
  | B t -> Rmq_block.size_bytes t

module Naive_impl = Rmq_naive
module Sparse_impl = Rmq_sparse
