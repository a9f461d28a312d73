"""opticat: composable optics with executable laws and a document CLI."""

from .base import Just, Left, Nothing, Right, either
from .families import (
    AchLens,
    Adapter,
    FamilyMismatchError,
    FamilyTag,
    Lens,
    Optional,
    Prism,
    Setter,
    compose,
    dimap_optic,
    each,
    embed,
    family_join,
    family_le,
    first,
    identity_optic,
    inj_optic,
    just,
    map_optic,
    multi_map_optic,
    second,
)
from .functors import (
    ContainerShape,
    FunctorFamily,
    UnsupportedShapeError,
    any_functor,
    compose_shapes,
    cps_shape,
    id_only,
    id_shape,
    is_pointed_product,
    is_product,
    is_sum,
    maybe_pair_shape,
    maybe_shape,
    pair_shape,
    sum_shape,
)
from .iso import (
    IsoOptic,
    enhance_iso,
    enhance_to_arrow,
    iso_compose,
    iso_inj,
    iso_map_optic,
    observational_eq,
)
from .prof import (
    FUNCTION_ARROW,
    GETTING,
    MATCHING,
    ProfOptic,
    ProfunctorCapability,
    UnsupportedOperatorError,
    get_operator,
    iso_to_prof,
    match_operator,
    prof_apply,
    prof_first,
    prof_just,
    prof_right,
    prof_second,
    prof_to_iso,
)
from .encode import (
    Functorization,
    ProfEncoding,
    concrete_to_iso,
    functorize,
    prof_encoding,
    unfunctorize,
)

__version__ = "0.1.0"
